//! The MicroDeep execution kernel: one forward and one backward loop
//! nest for every execution mode.
//!
//! MicroDeep runs one CNN in place on the mesh (paper §IV.C). The
//! plain, lossy, integer and traced passes differ only in how values
//! cross from producer units' nodes to a consumer unit's node — the
//! [`Transport`]: [`Perfect`], which reads the producer layer in place,
//! or [`Lossy`], which carries each consumer unit's cross-node edges
//! over a [`LossyRuntime`] as one fabric burst and, when traced, spans
//! it — and in the number [`Domain`] the units compute in: f32 over
//! [`crate::DistributedCnn`], or i8 with exact i32 accumulation over
//! [`crate::QuantizedCnn`]. "Lossless equals plain" therefore holds by
//! construction: a lossless fabric hands every value back unchanged,
//! and the arithmetic around each delivery is the same code.
//!
//! **One lane type.** Activations and packed weights are f32 in both
//! domains: an i8 model's are the exact f32 images of its i8 values.
//! Both domains fold `w · x` in the same f32 lanes, which the compiler
//! vectorizes on the build's baseline, where i8×i8→i32 products compile
//! to scalar instructions. What differs is where a lane's sum goes (its
//! [`Accumulator`]): an f32 lane runs from its unit's own accumulator to
//! the end, while an i32 lane sums at most [`SPAN`] terms from 0.0 and
//! adds that exact integer to its i32 accumulator, span after span.
//!
//! **Blocks.** Every forward stage runs in blocks of up to [`LANES`]
//! neighbouring consumer units — conv units of one output row, pool
//! units of one pooled row, dense units — computed together, one lane
//! per unit, so the lanes' dependency chains overlap instead of running
//! one after another. Each lane keeps its unit's own order: a conv lane
//! starts from the bias and adds the kernel terms in `(in channel, ky,
//! kx)` order; a dense lane starts from the identity `Iterator::sum`
//! folds from, adds the inputs in order and adds the bias last; a pool
//! lane keeps the first strict maximum. Lanes reassociate nothing
//! within a unit, so f32 results are bit-identical to computing one
//! unit at a time, and i32 results to its sequential integer fold (the
//! `reference` tests hold the nest to both). A transport only decides
//! where a block's inputs come from.
//!
//! The conv backward runs in lanes too, across each unit's kernel
//! terms. It first collects the units whose gradient survives the ReLU
//! and is non-zero, in unit order and without a branch per unit. Only
//! un-pool targets can be live, so un-pool marks them in a bitmap and
//! only they are visited. It then adds each live unit's contribution to
//! its kernel's gradient [`LANES`] terms at a time. Every gradient element takes exactly one
//! contribution from a unit, and a kernel shared by several units (a
//! replica) takes theirs in unit order, so the gradients are
//! bit-identical to visiting every unit in turn. Un-pool and the dense
//! backward carry their gradients one edge at a time, in the order a
//! unit-at-a-time pass sends them.
//!
//! **Buffers.** The tables a model's config fixes (receptive field, pool
//! window, dense term list) are built on its first pass, and every
//! stage writes into buffers the model keeps from pass to pass
//! ([`Workspace`], [`Grads`]); they are never serialized. The forward
//! reads its weights from the workspace's [`Packed`] table, each block's
//! kernels laid out lane-major as f32 images so that one term's lane
//! weights are one contiguous row. The first forward after a parameter
//! change builds it: a model starts without one, `apply_gradients`
//! marks it stale, and `QuantizedCnn::new` frees the one its
//! calibration built. A
//! re-placement does not repack: it re-points each migrated conv unit's
//! lane at its new host's replica ([`Workspace::repoint`]). So after its
//! first sample an f32 or i8 forward over [`Perfect`] allocates only the
//! logits it returns, plus, on a repack in the replica modes, the
//! node-indexed replica table the pack is built from; in those modes
//! the backward allocates its own node-indexed table of the replicas'
//! gradients once per pass. A forward over [`Lossy`] allocates the
//! same: each unit's burst reads its inputs straight from the producer
//! layer and lands them in the block buffer's [`Scratch`].

use crate::assignment::Assignment;
use crate::config::CnnConfig;
use crate::distributed::{DistributedCnn, Layout, Params, Parts};
use crate::lossy::{
    HopProbe, LossyRuntime, STAGE_CONV_POOL, STAGE_HIDDEN_LOGIT, STAGE_INPUT_CONV,
    STAGE_POOL_HIDDEN,
};
use std::collections::BTreeMap;
use std::ops::Add;
use zeiot_core::id::NodeId;
use zeiot_nn::tensor::Tensor;
use zeiot_obs::trace::SpanScope;

/// Consumer units one block computes together.
const LANES: usize = 8;

/// Terms an i32 lane sums in f32 before it settles the sum into its
/// accumulator. A term of an i8 model is `w · x` with |w| ≤ 127 and
/// |x| ≤ 128 (the pool floor −128 fills a lossy block's unused lanes),
/// so a span's partial sums stay within 256 · 127 · 128 = 4,161,536 <
/// 2^22: each is an exact f32 integer, and [`settle`] reads it exactly.
const SPAN: usize = 256;

/// `(stage, producer, consumer)`: edge stage `s` (a `STAGE_*` constant)
/// links unit `producer` of unit-graph layer `s` to unit `consumer` of
/// layer `s + 1`.
pub(crate) type Edge = (u64, usize, usize);

/// `lanes` neighbouring consumer units `first..first + lanes` of edge
/// stage `stage`: lane `j`'s term `t` reads producer `base + terms[t] +
/// j · stride`.
#[derive(Clone, Copy)]
pub(crate) struct Block<'a> {
    stage: u64,
    first: usize,
    lanes: usize,
    base: usize,
    terms: &'a [usize],
    stride: usize,
    /// The hop-span name of each unit's fetches.
    hop: &'static str,
}

impl Block<'_> {
    fn producer(&self, term: usize, lane: usize) -> usize {
        self.base + term + lane * self.stride
    }
}

/// A delivered block: lane `j`'s term `t` is `src[base + terms[t] + o_j]`,
/// where the lane offsets `o_j` follow [`Lanes`].
pub(crate) struct Inputs<'v> {
    src: &'v [f32],
    base: usize,
    terms: &'v [usize],
    lanes: Lanes,
}

/// Where a block's lanes sit in its source, relative to lane 0. Lanes
/// past the block's width read in bounds too; the caller drops their
/// results.
#[derive(Clone, Copy)]
enum Lanes {
    /// Lane `j` at `j`: the block's lane values are one contiguous run.
    Contiguous,
    /// Every lane at 0: each term is one value all lanes read.
    Broadcast,
    /// Lane `j` at its own offset, the `j`-th entry.
    Gathered([usize; LANES]),
}

/// Reads one term's lane values from `src`, lane 0 at `at`.
pub(crate) trait Read {
    fn read(&self, src: &[f32], at: usize) -> [f32; LANES];
}

/// [`Lanes::Contiguous`].
struct Run;
/// [`Lanes::Broadcast`].
struct Splat;
/// [`Lanes::Gathered`].
struct Gather([usize; LANES]);

impl Read for Run {
    #[inline(always)]
    fn read(&self, src: &[f32], at: usize) -> [f32; LANES] {
        // zeiot-audit: allow(p1) -- delivered blocks index inside their source
        let mut xs = [src[at]; LANES];
        xs.copy_from_slice(&src[at..at + LANES]);
        xs
    }
}

impl Read for Splat {
    #[inline(always)]
    fn read(&self, src: &[f32], at: usize) -> [f32; LANES] {
        // zeiot-audit: allow(p1) -- delivered blocks index inside their source
        [src[at]; LANES]
    }
}

impl Read for Gather {
    #[inline(always)]
    fn read(&self, src: &[f32], at: usize) -> [f32; LANES] {
        // zeiot-audit: allow(p1) -- delivered blocks index inside their source
        let mut xs = [src[at]; LANES];
        for (x, off) in xs.iter_mut().zip(self.0) {
            *x = src[at + off];
        }
        xs
    }
}

/// The blocks of a row of `len` units: `(offset, lanes)`.
fn blocks(len: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..len)
        .step_by(LANES)
        .map(move |first| (first, (len - first).min(LANES)))
}

/// A block buffer, reused across passes: value `t · LANES + j` is lane
/// `j`'s term `t`, and `offsets[t] = t · LANES`. A lossy block's bursts
/// land here.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    values: Vec<f32>,
    offsets: Vec<usize>,
}

/// The offset tables a model's config fixes, built on its first pass.
#[derive(Debug, Clone, Default)]
struct Tables {
    /// A conv unit's receptive field ([`receptive_field`]).
    field: Vec<usize>,
    /// A pool unit's window, relative to its top-left conv unit.
    window: Vec<usize>,
    /// `0..n` for the wider dense input: dense unit terms.
    terms: Vec<usize>,
}

impl Tables {
    /// Builds the tables unless they are built already.
    fn build(&mut self, c: &CnnConfig) {
        if !self.field.is_empty() {
            return;
        }
        let (ow, k) = (c.conv_dims().1, c.pool());
        self.field = receptive_field(c);
        self.window = (0..k).flat_map(|ky| (ky * ow..).take(k)).collect();
        self.terms = (0..c.feature_len().max(c.hidden())).collect();
    }
}

/// What a model's forward passes reuse: its [`Tables`], its [`Packed`]
/// weights, the admitted input, the lossy block buffer, and each stage's
/// output, activations as f32 (exact images in the i8 domain) and sums
/// in the domain's accumulator `Acc`. A pass overwrites every buffer but
/// the packed weights before it reads it, so none carries state from
/// one pass to the next; the packed weights are a copy of the model's
/// parameters, kept current as [`Packed`] says.
///
/// A clone carries the packed weights: they are a function of the
/// parameters and the placement, which the clone copies too.
#[derive(Debug, Clone, Default)]
pub(crate) struct Workspace<Acc> {
    tables: Tables,
    packed: Packed<Acc>,
    input: Vec<f32>,
    block: Scratch,
    conv: Vec<Acc>,
    conv_relu: Vec<f32>,
    pooled: Vec<f32>,
    argmax: Vec<usize>,
    hidden: Vec<Acc>,
    hidden_relu: Vec<f32>,
    logits: Vec<Acc>,
}

impl<Acc: Copy> Workspace<Acc> {
    /// Marks the packed weights stale after the parameters changed: the
    /// next forward repacks them into the same storage.
    pub(crate) fn invalidate_pack(&mut self) {
        let Packed { conv, bias, dense } = &mut self.packed;
        conv.clear();
        bias.clear();
        dense.iter_mut().for_each(Vec::clear);
    }

    /// Frees the packed weights; the next forward, if any, packs anew.
    pub(crate) fn release_pack(&mut self) {
        self.packed = Packed::default();
    }

    /// Points conv unit `unit`'s lane at its output channel's kernel and
    /// bias in `rep`, the replica of the unit's new host: a migration
    /// changes no parameter, only which replica the unit reads. Stale
    /// packed weights are left to the next forward, which packs the new
    /// placement.
    pub(crate) fn repoint<R: Layout<B = Acc>>(&mut self, c: &CnnConfig, unit: usize, rep: &R) {
        let Packed { conv, bias, .. } = &mut self.packed;
        let ((oh, ow), n) = (c.conv_dims(), c.in_channels() * c.kernel() * c.kernel());
        // Unit `unit` is at `ox` of output row `row` (channel-major).
        let (channel, row, ox) = (unit / (oh * ow), unit / ow, unit % ow);
        let (block, lane) = (row * ow.div_ceil(LANES) + ox / LANES, ox % LANES);
        let kernel = rep.weights().chunks_exact(n).nth(channel).unwrap_or(&[]);
        for (terms, &w) in conv.iter_mut().skip(block * n).zip(kernel) {
            if let Some(slot) = terms.get_mut(lane) {
                *slot = w.into();
            }
        }
        let slot = bias.get_mut(block).and_then(|b| b.get_mut(lane));
        if let (Some(slot), Some(&b)) = (slot, rep.bias().get(channel)) {
            *slot = b;
        }
    }
}

/// Every forward block's weights, lane-major: a block's row `t` holds
/// its lanes' term `t`, lane `j` at `j`, so the forward reads one
/// contiguous row per term. Rows hold f32 weights as they are and i8
/// weights as their exact f32 images; biases stay in the accumulator
/// domain `B`. Lanes past a block's width repeat its last
/// unit; their results are dropped. Empty when stale; the first forward
/// after that packs the model's parameters (`Packed::build`).
///
/// The paths that change what a model's forward reads keep it current:
/// - `DistributedCnn::apply_gradients`, in every mode, marks it stale
///   ([`Workspace::invalidate_pack`]);
/// - `replace::apply_one` and `QuantizedCnn::resync_placement` re-point
///   the lane of each conv unit that moved to another replica
///   ([`Workspace::repoint`]); per-unit kernels travel with their units,
///   and dense and pool units read no per-host weights, so no other
///   migration changes it;
/// - a constructed or deserialized model starts without one, and
///   `QuantizedCnn::new` frees the one its calibration forwards built
///   ([`Workspace::release_pack`]).
#[derive(Debug, Clone)]
pub(crate) struct Packed<B> {
    /// Conv blocks in forward order (channel, output row, block), one row
    /// per kernel term.
    conv: Vec<[f32; LANES]>,
    /// Each conv block's lane biases, where its lanes start.
    bias: Vec<[B; LANES]>,
    /// Dense-1's and dense-2's blocks, one row per input; a dense lane
    /// adds its bias last, from the model's own table.
    dense: [Vec<[f32; LANES]>; 2],
}

impl<B> Default for Packed<B> {
    fn default() -> Self {
        let (conv, bias, dense) = (Vec::new(), Vec::new(), [Vec::new(), Vec::new()]);
        Self { conv, bias, dense }
    }
}

impl<B: Copy> Packed<B> {
    /// Packs `p`'s parameters unless the table is current; a conv kernel
    /// has `n` terms. Reserves exact capacity, so a repack reuses the
    /// first pack's storage.
    fn build<D: Domain<Acc = B>>(&mut self, p: &Parts<'_, D::Replica, D::Table>, n: usize) {
        if !self.conv.is_empty() {
            return;
        }
        let c = p.config;
        let (channels, (oh, ow)) = (c.conv_channels(), c.conv_dims());
        let blocks_of = |units: usize| units.div_ceil(LANES);
        let conv_blocks = channels * oh * blocks_of(ow);
        self.conv.reserve_exact(conv_blocks * n);
        self.bias.reserve_exact(conv_blocks);
        let kernels = Kernels::new(p, n, D::zero());
        let empty: &[D::W] = &[];
        let (mut w, mut bias) = ([empty; LANES], [D::zero(); LANES]);
        for channel in 0..channels {
            for oy in 0..oh {
                for (ox, lanes) in blocks(ow) {
                    let first = (channel * oh + oy) * ow + ox;
                    kernels.fill(channel, first, lanes, &mut w, &mut bias);
                    transpose(&w, n, &mut self.conv);
                    self.bias.push(bias);
                }
            }
        }
        let inputs = [c.feature_len(), c.hidden()];
        for ((table, n), rows) in p.dense.into_iter().zip(inputs).zip(&mut self.dense) {
            let (weights, units) = (table.weights(), table.bias().len());
            rows.reserve_exact(blocks_of(units) * n);
            for (first, lanes) in blocks(units) {
                // Lanes past `lanes` repeat the last unit's row.
                let mut unit_rows = weights.chunks_exact(n).skip(first).take(lanes);
                let mut last = empty;
                for row in &mut w {
                    last = unit_rows.next().unwrap_or(last);
                    *row = last;
                }
                transpose(&w, n, rows);
            }
        }
    }

    /// Conv blocks in forward order: each one's `n` rows and its biases.
    fn conv(&self, n: usize) -> impl Iterator<Item = (&[[f32; LANES]], &[B; LANES])> {
        self.conv.chunks_exact(n).zip(&self.bias)
    }
}

/// Appends the `n` rows of a block whose lane `j` reads `kernels[j]`:
/// row `t` is every lane's term `t`, as f32. Written a lane at a time,
/// so each kernel is read in order.
fn transpose<W: Copy + Into<f32>>(kernels: &[&[W]; LANES], n: usize, rows: &mut Vec<[f32; LANES]>) {
    let start = rows.len();
    rows.resize(start + n, [0.0; LANES]);
    for (j, kernel) in kernels.iter().enumerate() {
        for (row, &w) in rows.iter_mut().skip(start).zip(*kernel) {
            // zeiot-audit: allow(p1) -- `j` enumerates the block's LANES kernels
            row[j] = w.into();
        }
    }
}

/// What the backward pass and the synchronized update reuse, overwritten
/// before each read like [`Workspace`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Grads {
    /// The gradient reaching each hidden, pool and conv unit.
    hidden: Vec<f32>,
    pooled: Vec<f32>,
    conv: Vec<f32>,
    /// The conv units un-pool wrote a gradient to, one bit per unit.
    targets: Vec<u64>,
    /// The live conv units, and where each output channel's run ends.
    live: Vec<Live>,
    ends: Vec<usize>,
    /// The synchronized update's summed kernel and bias gradients.
    pub(crate) sums: Option<(Tensor, Tensor)>,
}

/// A conv unit whose gradient `g` passed the ReLU non-zero; its
/// receptive field starts at input index `corner`.
#[derive(Debug, Clone, Copy, Default)]
struct Live {
    g: f32,
    unit: usize,
    corner: usize,
}

/// Replaces `dst`'s contents with `src`, in `dst`'s own storage.
pub(crate) fn overwrite<T: Copy>(dst: &mut Vec<T>, src: &[T]) {
    dst.clear();
    dst.extend_from_slice(src);
}

/// How values move between the nodes hosting CNN units.
pub(crate) trait Transport {
    /// Delivers block `b`'s inputs from producer layer `x`; `None` aborts
    /// the pass.
    fn deliver<'v, D: Domain>(
        &mut self,
        x: &'v [f32],
        b: Block<'v>,
        at: &Assignment,
        buf: &'v mut Scratch,
    ) -> Option<Inputs<'v>>;

    /// Carries one gradient contribution back over `edge`, consumer to
    /// producer; a lost contribution is zero.
    fn gradient(&mut self, g: f32, at: &Assignment, edge: Edge) -> f32;

    /// Ends one training or evaluation sample, `completed` or aborted.
    fn end_sample(&mut self, completed: bool);
}

/// The perfect radio: every value arrives as sent.
pub(crate) struct Perfect;

impl Transport for Perfect {
    fn deliver<'v, D: Domain>(
        &mut self,
        x: &'v [f32],
        b: Block<'v>,
        _: &Assignment,
        _: &'v mut Scratch,
    ) -> Option<Inputs<'v>> {
        // Terms ascend, so the last one bounds a contiguous block.
        let last = b.terms.last().map_or(b.base, |&term| b.base + term);
        let lanes = match b.stride {
            0 => Lanes::Broadcast,
            1 if last + LANES <= x.len() => Lanes::Contiguous,
            // Lanes past the block's width on its last unit.
            stride => Lanes::Gathered(std::array::from_fn(|j| j.min(b.lanes - 1) * stride)),
        };
        Some(Inputs {
            src: x,
            base: b.base,
            terms: b.terms,
            lanes,
        })
    }

    fn gradient(&mut self, g: f32, _: &Assignment, _: Edge) -> f32 {
        g
    }

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

    /// Brackets one consumer unit's fetches; `close_unit` names the hop
    /// span.
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
}

impl Transport for Lossy<'_, '_, '_> {
    /// Sends unit by unit, each unit's edges in term order as one burst
    /// under one hop span: the messages a unit-at-a-time pass sends, in
    /// its order. Each entry reads its producer's host and value, and
    /// lands in the unit's lane of the block buffer. A landed value is
    /// read through [`Domain::from_wire`] only when the plan can corrupt
    /// a payload: otherwise it is a value some producer of this model
    /// computed (local, delivered, or held by last-value-hold) or
    /// zero-fill's 0, already a value of the domain.
    fn deliver<'v, D: Domain>(
        &mut self,
        x: &'v [f32],
        b: Block<'v>,
        at: &Assignment,
        buf: &'v mut Scratch,
    ) -> Option<Inputs<'v>> {
        let n = b.terms.len();
        let Scratch { values, offsets } = buf;
        values.clear();
        values.resize(n * LANES, D::FLOOR);
        let stage = b.stage as usize;
        let corrupts = self.rt.fabric().plan().can_corrupt();
        // Sliced to one length, so one bounds check covers a producer's
        // host and its value.
        let len = at.hosts(stage).len().min(x.len());
        let (hosts, x, terms) = (&at.hosts(stage)[..len], &x[..len], b.terms);
        for lane in 0..b.lanes {
            let consumer = b.first + lane;
            let dst = at.host_of(stage + 1, consumer);
            // The lane reads term `t` from producer `origin + terms[t]`.
            let origin = b.producer(0, lane);
            let producer = |t: usize| origin + terms[t];
            let entry = |t| {
                let p = producer(t);
                (hosts[p], x[p])
            };
            let slots = &mut values[lane..];
            let write = |t: usize, v| {
                slots[t * LANES] = if corrupts { D::from_wire(v) } else { v };
            };
            self.open_unit();
            self.rt
                .transport_unit(dst, n, entry, (b.stage, consumer), producer, write)?;
            self.close_unit(b.hop);
        }
        if offsets.len() < n {
            let from = offsets.len();
            offsets.extend((from..n).map(|t| t * LANES));
        }
        Some(Inputs {
            src: values,
            base: 0,
            terms: &offsets[..n],
            lanes: Lanes::Contiguous,
        })
    }

    fn gradient(&mut self, g: f32, at: &Assignment, (stage, producer, consumer): Edge) -> f32 {
        let src = at.host_of(stage as usize + 1, consumer);
        let dst = at.host_of(stage as usize, producer);
        self.rt.fetch_gradient(g, src, dst)
    }

    fn end_sample(&mut self, completed: bool) {
        if !completed {
            self.rt.note_aborted();
        }
        self.rt.advance_pass();
    }
}

/// A model's number domain and parameters, as the forward nest sees
/// them. Activations are f32 in every domain: an i8 domain's are the
/// exact f32 images of its i8 values. `activate`, `pool_done` and
/// `finish` run as each stage completes, so a pass that aborts mid-way
/// has updated exactly the earlier stages' caches and counters.
pub(crate) trait Domain {
    /// Weight and accumulator elements; biases live in the accumulator
    /// domain.
    type W: Copy + Into<f32>;
    type Acc: Accumulator;
    /// A conv replica's table, and the per-unit and dense tables.
    type Replica: Layout<W = Self::W, B = Self::Acc>;
    type Table: Layout<W = Self::W, B = Self::Acc>;
    /// Hop-span names of conv, pool, hidden and logit units.
    const HOPS: [&'static str; 4];
    /// The max-pooling identity: every activation compares above it.
    const FLOOR: f32;
    /// Whether max-pooling records the conv unit each pooled value came
    /// from, for `pool_done`; a domain without a backward skips it.
    const ARGMAX: bool;

    /// The receiver's reading of a value off the fabric, when the plan
    /// can have corrupted it.
    fn from_wire(v: f32) -> f32;
    /// The placement and parameter tables.
    fn parts(&self) -> Parts<'_, Self::Replica, Self::Table>;
    /// The buffers this model's passes reuse.
    fn work(&mut self) -> &mut Workspace<Self::Acc>;
    /// Checks the input's shape and converts it to activations, in `buf`
    /// when they are not the input's own values.
    fn admit<'a>(&mut self, input: &'a Tensor, buf: &'a mut Vec<f32>) -> &'a [f32];
    /// Where a dense unit's sum starts: the identity `Iterator::sum`
    /// folds from.
    fn zero() -> Self::Acc;
    /// Accumulators of unit-graph layer 1 (conv) or 3 (hidden) → ReLU'd
    /// activations, written over `out`.
    fn activate(&mut self, layer: usize, acc: &[Self::Acc], out: &mut Vec<f32>);
    /// Pooled activations and, when [`Domain::ARGMAX`], the conv unit
    /// each one came from (empty otherwise).
    fn pool_done(&mut self, pooled: &[f32], argmax: &[usize]);
    /// Logit accumulators → the logits of a completed pass.
    fn finish(&mut self, input: &Tensor, logits: &[Self::Acc]) -> Tensor;
}

/// Where a lane's sum of `w · x` terms goes. Every lane folds its terms
/// in f32, in term order ([`span`]); the accumulator decides how many
/// terms one f32 run covers and how it reaches the unit's sum.
pub(crate) trait Accumulator: Copy + Add<Output = Self> + Default {
    /// Folds the block rows `w` over the terms of `v`, read by `lanes`,
    /// into the lanes `acc`: lane `j` takes `w[t][j] · x(t, j)` for every
    /// term `t` in order.
    fn fold<R: Read>(
        acc: [Self; LANES],
        w: &[[f32; LANES]],
        v: &Inputs<'_>,
        lanes: &R,
    ) -> [Self; LANES];
}

/// One f32 run from the accumulator itself: the unit's own rounding.
impl Accumulator for f32 {
    #[inline(always)]
    fn fold<R: Read>(
        acc: [f32; LANES],
        w: &[[f32; LANES]],
        v: &Inputs<'_>,
        lanes: &R,
    ) -> [f32; LANES] {
        span(acc, w, v, v.terms, lanes)
    }
}

/// Exact integer sums: runs of at most [`SPAN`] terms from 0.0, each an
/// exact f32 integer, [`settle`]d into the i32 accumulator. i32 addition
/// is associative, so the result is the sequential integer fold's.
impl Accumulator for i32 {
    #[inline(always)]
    fn fold<R: Read>(
        acc: [i32; LANES],
        w: &[[f32; LANES]],
        v: &Inputs<'_>,
        lanes: &R,
    ) -> [i32; LANES] {
        let mut acc = acc;
        for (w, terms) in w.chunks(SPAN).zip(v.terms.chunks(SPAN)) {
            let sums = span([0.0; LANES], w, v, terms, lanes);
            for (a, s) in acc.iter_mut().zip(sums) {
                *a += settle(s);
            }
        }
        acc
    }
}

/// The integer an exact f32 sum `s` holds, for |s| ≤ 2^22: 1.5 · 2^23 +
/// s lies in [2^23, 2^24], where f32 integers are exact, and its bits
/// are `0x4B40_0000 + s`.
#[inline(always)]
fn settle(s: f32) -> i32 {
    (s + 12_582_912.0).to_bits() as i32 - 0x4B40_0000
}

/// Offsets of a conv unit's receptive field in kernel order `(in
/// channel, ky, kx)`, relative to the input index of its top-left corner.
fn receptive_field(c: &CnnConfig) -> Vec<usize> {
    let (k, ih, iw) = (c.kernel(), c.in_height(), c.in_width());
    let rows = (0..c.in_channels()).flat_map(|icn| (0..k).map(move |ky| icn * ih * iw + ky * iw));
    rows.flat_map(|row| row..row + k).collect()
}

/// `entries` laid out by node index in a table of `len` slots; a node
/// without an entry holds `empty()`.
fn by_node<T>(
    len: usize,
    entries: impl Iterator<Item = (NodeId, T)>,
    empty: impl FnMut() -> T,
) -> Vec<T> {
    let mut table: Vec<T> = std::iter::repeat_with(empty).take(len).collect();
    for (node, entry) in entries {
        if let Some(slot) = table.get_mut(node.index()) {
            *slot = entry;
        }
    }
    table
}

/// Slots a node-indexed table over `replicas` needs.
fn node_slots<R>(replicas: &BTreeMap<NodeId, R>) -> usize {
    replicas
        .keys()
        .next_back()
        .map_or(0, |node| node.index() + 1)
}

/// Every conv unit's kernel and bias, for one pack: the unit's own, or
/// its host replica's through one node-indexed table per output channel,
/// all channels in one allocation.
enum Kernels<'a, W, B> {
    PerUnit {
        weights: &'a [W],
        bias: &'a [B],
        len: usize,
    },
    Replicas {
        hosts: &'a [NodeId],
        /// Channel `o`'s table is `by_node[o · nodes..(o + 1) · nodes]`.
        nodes: usize,
        by_node: Vec<(&'a [W], B)>,
    },
}

impl<'a, W, B: Copy> Kernels<'a, W, B> {
    /// Kernels of length `len`; `zero` fills the table slots of nodes
    /// without a replica.
    fn new<R, P>(p: &Parts<'a, R, P>, len: usize, zero: B) -> Self
    where
        R: Layout<W = W, B = B>,
        P: Layout<W = W, B = B>,
    {
        if let Some(pk) = p.per_unit {
            let (weights, bias) = (pk.weights(), pk.bias());
            return Self::PerUnit { weights, bias, len };
        }
        let (nodes, empty): (usize, &[W]) = (node_slots(p.replicas), &[]);
        let mut by_node = vec![(empty, zero); nodes * p.config.conv_channels()];
        for (node, rep) in p.replicas {
            let kernels = rep.weights().chunks_exact(len).zip(rep.bias());
            let slots = by_node.iter_mut().skip(node.index()).step_by(nodes);
            for (slot, (kernel, &bias)) in slots.zip(kernels) {
                *slot = (kernel, bias);
            }
        }
        Self::Replicas {
            hosts: p.conv_unit_host,
            nodes,
            by_node,
        }
    }

    /// Sets `w` and `b` to the kernels and biases of the `lanes` units
    /// from `first`, all in output `channel`, lanes past `lanes` on the
    /// last unit.
    fn fill(
        &self,
        channel: usize,
        first: usize,
        lanes: usize,
        w: &mut [&'a [W]; LANES],
        b: &mut [B; LANES],
    ) {
        let last = first + lanes - 1;
        let slots = w
            .iter_mut()
            .zip(b)
            .zip((first..).map(|unit| unit.min(last)));
        match self {
            Self::PerUnit { weights, bias, len } => {
                for ((w, b), unit) in slots {
                    // zeiot-audit: allow(p1) -- validated per-unit tables hold one kernel and bias per conv unit, and validated models keep a replica on every conv host
                    (*w, *b) = (&weights[unit * len..(unit + 1) * len], bias[unit]);
                }
            }
            Self::Replicas {
                hosts,
                nodes,
                by_node,
            } => {
                let table = &by_node[channel * nodes..(channel + 1) * nodes];
                for ((w, b), unit) in slots {
                    (*w, *b) = table[hosts[unit].index()];
                }
            }
        }
    }
}

/// Checks the input's `[in_channels, in_height, in_width]` shape.
///
/// # Panics
///
/// Panics unless `input` has the shape the config dictates.
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
    // The workspace leaves the model for the pass, so the stage hooks can
    // borrow the model while the stages write the workspace.
    let mut w = std::mem::take(m.work());
    let logits = stages(m, input, t, &mut w);
    *m.work() = w;
    logits
}

/// [`forward`] over workspace `w`.
fn stages<D: Domain, T: Transport>(
    m: &mut D,
    input: &Tensor,
    t: &mut T,
    w: &mut Workspace<D::Acc>,
) -> Option<Tensor> {
    let Workspace {
        tables,
        packed,
        input: admitted,
        block,
        conv: acc,
        conv_relu,
        pooled,
        argmax,
        hidden,
        hidden_relu,
        logits,
    } = w;
    let x = m.admit(input, admitted);
    tables.build(m.parts().config);
    packed.build::<D>(&m.parts(), tables.field.len());
    conv::<D, T>(&m.parts(), x, &tables.field, packed, t, block, acc)?;
    m.activate(1, acc, conv_relu);
    pool::<D, T>(
        &m.parts(),
        conv_relu,
        &tables.window,
        t,
        block,
        pooled,
        argmax,
    )?;
    m.pool_done(pooled, argmax);
    let terms = &tables.terms;
    dense::<D, T>(&m.parts(), 0, pooled, terms, packed, t, block, hidden)?;
    m.activate(3, hidden, hidden_relu);
    dense::<D, T>(&m.parts(), 1, hidden_relu, terms, packed, t, block, logits)?;
    Some(m.finish(input, logits))
}

/// Folds every term into every lane, in term order, from the block's
/// packed rows: lane `j` takes `w[t][j] · v(t, j)` for `t` = 0, 1, …, n−1,
/// into `acc[j]` as its [`Accumulator`] says.
fn accumulate<D: Domain>(
    acc: [D::Acc; LANES],
    w: &[[f32; LANES]],
    v: &Inputs<'_>,
) -> [D::Acc; LANES] {
    match v.lanes {
        Lanes::Contiguous => D::Acc::fold(acc, w, v, &Run),
        Lanes::Broadcast => D::Acc::fold(acc, w, v, &Splat),
        Lanes::Gathered(offsets) => D::Acc::fold(acc, w, v, &Gather(offsets)),
    }
}

/// One f32 run over `terms`, a run of `v`'s terms, and the matching
/// rows `w`: lane `j` becomes `(… (s[j] + w[0][j] · x(0, j)) + …) +
/// w[n−1][j] · x(n−1, j)`.
#[inline(always)]
fn span<R: Read>(
    s: [f32; LANES],
    w: &[[f32; LANES]],
    v: &Inputs<'_>,
    terms: &[usize],
    lanes: &R,
) -> [f32; LANES] {
    let mut s = s;
    for (row, &term) in w.iter().zip(terms) {
        let xs = lanes.read(v.src, v.base + term);
        for ((s, &w), x) in s.iter_mut().zip(row).zip(xs) {
            *s += w * x;
        }
    }
    s
}

/// Convolution into `out`: each conv unit pulls its receptive field
/// `field` from the sensors hosting the input units. Blocks run along
/// output rows, each reading its packed kernels.
fn conv<D: Domain, T: Transport>(
    p: &Parts<'_, D::Replica, D::Table>,
    x: &[f32],
    field: &[usize],
    packed: &Packed<D::Acc>,
    t: &mut T,
    buf: &mut Scratch,
    out: &mut Vec<D::Acc>,
) -> Option<()> {
    let c = p.config;
    let ((oh, ow), iw) = (c.conv_dims(), c.in_width());
    let [hop, ..] = D::HOPS;
    out.clear();
    let mut kernels = packed.conv(field.len());
    for channel in 0..c.conv_channels() {
        for oy in 0..oh {
            for ((ox, lanes), (w, &bias)) in blocks(ow).zip(&mut kernels) {
                let first = (channel * oh + oy) * ow + ox;
                let b = Block {
                    stage: STAGE_INPUT_CONV,
                    first,
                    lanes,
                    base: oy * iw + ox,
                    terms: field,
                    stride: 1,
                    hop,
                };
                let v = t.deliver::<D>(x, b, p.assignment, buf)?;
                out.extend(accumulate::<D>(bias, w, &v).into_iter().take(lanes));
            }
        }
    }
    Some(())
}

/// Each lane's first strict maximum and, when [`Domain::ARGMAX`], the
/// term it came from; a lane where nothing compares above
/// [`Domain::FLOOR`] (NaN, or the floor itself) keeps the floor and no
/// term (`usize::MAX`), as does every lane without the argmax.
fn max_lanes<D: Domain>(v: &Inputs<'_>) -> ([f32; LANES], [usize; LANES]) {
    match v.lanes {
        Lanes::Contiguous => max_fold::<D, _>(v, Run),
        Lanes::Broadcast => max_fold::<D, _>(v, Splat),
        Lanes::Gathered(offsets) => max_fold::<D, _>(v, Gather(offsets)),
    }
}

/// [`max_lanes`] for one lane layout: selects, not branches.
#[inline(always)]
fn max_fold<D: Domain, R: Read>(v: &Inputs<'_>, lanes: R) -> ([f32; LANES], [usize; LANES]) {
    let mut best = [D::FLOOR; LANES];
    let mut won = [usize::MAX; LANES];
    for (t, &term) in v.terms.iter().enumerate() {
        let xs = lanes.read(v.src, v.base + term);
        if D::ARGMAX {
            for ((best, won), x) in best.iter_mut().zip(&mut won).zip(xs) {
                let above = x > *best;
                *best = if above { x } else { *best };
                *won = if above { t } else { *won };
            }
        } else {
            for (best, x) in best.iter_mut().zip(xs) {
                *best = if x > *best { x } else { *best };
            }
        }
    }
    (best, won)
}

/// Max pooling into `pooled`: each pool unit pulls its `window` from the
/// conv hosts. Blocks run along pooled rows. When [`Domain::ARGMAX`],
/// `argmax` gets the conv unit each pooled value came from (conv unit 0
/// when none won); otherwise it stays empty.
fn pool<D: Domain, T: Transport>(
    p: &Parts<'_, D::Replica, D::Table>,
    relu: &[f32],
    window: &[usize],
    t: &mut T,
    buf: &mut Scratch,
    pooled: &mut Vec<f32>,
    argmax: &mut Vec<usize>,
) -> Option<()> {
    let c = p.config;
    let ((oh, ow), (ph, pw), k) = (c.conv_dims(), c.pool_dims(), c.pool());
    let [_, hop, ..] = D::HOPS;
    pooled.clear();
    argmax.clear();
    for row in 0..c.conv_channels() * ph {
        let (channel, py) = (row / ph, row % ph);
        for (px, lanes) in blocks(pw) {
            let b = Block {
                stage: STAGE_CONV_POOL,
                first: row * pw + px,
                lanes,
                base: channel * oh * ow + py * k * ow + px * k,
                terms: window,
                stride: k,
                hop,
            };
            let v = t.deliver::<D>(relu, b, p.assignment, buf)?;
            let (best, won) = max_lanes::<D>(&v);
            pooled.extend(best.into_iter().take(lanes));
            if D::ARGMAX {
                for (lane, won) in won.into_iter().take(lanes).enumerate() {
                    let term = window.get(won);
                    argmax.push(term.map_or(0, |&term| b.producer(term, lane)));
                }
            }
        }
    }
    Some(())
}

/// Dense layer `layer` (0: hidden, 1: logits) over the previous layer's
/// activations `x`, into `out`; every unit pulls the whole of `x`, its
/// terms the first `x.len()` of `terms`, its block's weights the layer's
/// packed rows.
#[allow(clippy::too_many_arguments)]
fn dense<D: Domain, T: Transport>(
    p: &Parts<'_, D::Replica, D::Table>,
    layer: usize,
    x: &[f32],
    terms: &[usize],
    packed: &Packed<D::Acc>,
    t: &mut T,
    buf: &mut Scratch,
    out: &mut Vec<D::Acc>,
) -> Option<()> {
    let ([hidden, logits], [.., hop_hidden, hop_logit]) = (p.dense, D::HOPS);
    let [rows_hidden, rows_logits] = &packed.dense;
    let (table, rows, hop) = if layer == 0 {
        (hidden, rows_hidden, hop_hidden)
    } else {
        (logits, rows_logits, hop_logit)
    };
    let bias = table.bias();
    let n = x.len();
    let terms = &terms[..n];
    out.clear();
    for ((first, lanes), w) in blocks(bias.len()).zip(rows.chunks_exact(n)) {
        let b = Block {
            stage: STAGE_POOL_HIDDEN + layer as u64,
            first,
            lanes,
            base: 0,
            terms,
            stride: 0,
            hop,
        };
        let v = t.deliver::<D>(x, b, p.assignment, buf)?;
        let acc = accumulate::<D>([D::zero(); LANES], w, &v);
        let biased = acc.into_iter().zip(bias.iter().skip(first).take(lanes));
        out.extend(biased.map(|(acc, &bias)| bias + acc));
    }
    Some(())
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
    let (at, c) = (&net.assignment, &net.config);
    let Grads {
        hidden,
        pooled,
        conv,
        targets,
        live,
        ends,
        ..
    } = &mut net.grads;

    // Dense layers: weight gradients stay on the consumer unit's host,
    // input gradients travel back to the producers.
    let grad = grad_logits.data();
    let (x, stage) = (&net.hidden_out, STAGE_HIDDEN_LOGIT);
    dense_backward(&mut net.dense2, x, grad, at, stage, t, hidden);
    relu_mask(hidden, &net.hidden_pre_relu);
    let (x, stage) = (&net.pool_out, STAGE_POOL_HIDDEN);
    dense_backward(&mut net.dense1, x, hidden, at, stage, t, pooled);

    // Un-pool: each pool unit's gradient flows to its argmax conv unit,
    // which `targets` marks.
    conv.clear();
    conv.resize(net.conv_pre_relu.len(), 0.0);
    targets.clear();
    targets.resize(conv.len().div_ceil(64), 0);
    for (i, (&src, &g)) in net.pool_argmax.iter().zip(pooled.iter()).enumerate() {
        if g != 0.0 {
            // zeiot-audit: allow(p1) -- argmax conv units index the table the completed forward pass sized
            conv[src] += t.gradient(g, at, (STAGE_CONV_POOL, src, i));
            targets[src / 64] |= 1 << (src % 64);
        }
    }

    // Conv: each live unit's contribution goes to its kernel (the unit's
    // own in PerUnit mode, else its host's replica), from the inputs the
    // unit cached on its own node at forward time.
    net.work.tables.build(c);
    let field = &net.work.tables.field;
    let live = live_units(c, conv, &net.conv_pre_relu, targets, live, ends);
    let (x, len) = (input.data(), field.len());
    match net.per_unit.as_mut() {
        Some(pk) => {
            let (grad_w, grad_b) = (pk.grad_weights.data_mut(), pk.grad_bias.data_mut());
            for u in live {
                let kernel = &mut grad_w[u.unit * len..(u.unit + 1) * len];
                add_unit(kernel, &mut grad_b[u.unit], u, x, field);
            }
        }
        None => {
            // Each replica takes its units' contributions in unit order.
            let slots = node_slots(&net.replicas);
            let reps = net
                .replicas
                .iter_mut()
                .map(|(&node, rep)| (node, Some(rep)));
            let mut reps = by_node(slots, reps, || None);
            let mut start = 0;
            for (channel, &end) in ends.iter().enumerate() {
                for u in &live[start..end] {
                    let host = net.conv_unit_host[u.unit].index();
                    let Some(rep) = reps.get_mut(host).and_then(Option::as_mut) else {
                        continue;
                    };
                    let grad_w = rep.grad_weights.data_mut();
                    let kernel = &mut grad_w[channel * len..(channel + 1) * len];
                    add_unit(kernel, &mut rep.grad_bias.data_mut()[channel], u, x, field);
                }
                start = end;
            }
        }
    }
}

/// The conv units whose gradient in `grad` is non-zero where the ReLU
/// passed it (`pre > 0`), in unit order, collected into `live` without a
/// branch per unit; `ends[o]` is where output channel `o`'s run ends.
/// Only un-pool targets can be live, so only the units `targets` marks
/// are visited, in ascending order, and a cursor walks the output rows to
/// place each one.
fn live_units<'l>(
    c: &CnnConfig,
    grad: &[f32],
    pre: &[f32],
    targets: &[u64],
    live: &'l mut Vec<Live>,
    ends: &mut Vec<usize>,
) -> &'l [Live] {
    let ((oh, ow), iw) = (c.conv_dims(), c.in_width());
    // Every target is written before the count decides whether it stays.
    if live.len() < grad.len() {
        live.resize(grad.len(), Live::default());
    }
    ends.clear();
    // Unit `row` starts output row `oy` of channel `ends.len()`.
    let (mut row, mut oy, mut n) = (0, 0, 0);
    for (word, &bits) in targets.iter().enumerate() {
        let mut bits = bits;
        while bits != 0 {
            let unit = word * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            while unit >= row + ow {
                row += ow;
                oy += 1;
                if oy == oh {
                    oy = 0;
                    ends.push(n);
                }
            }
            let corner = oy * iw + unit - row;
            // zeiot-audit: allow(p1) -- targets are conv units, `n` counts live units among those before `unit`
            let (g, passed) = (grad[unit], pre[unit] > 0.0);
            live[n] = Live { g, unit, corner };
            n += usize::from(passed & (g != 0.0));
        }
    }
    ends.resize(c.conv_channels(), n);
    &live[..n]
}

/// Adds live unit `u`'s contribution to its kernel's gradient: `u.g` to
/// the bias, and `u.g · x[u.corner + field[t]]` to weight `t`, [`LANES`]
/// terms at a time. Each weight takes this one contribution.
#[inline(always)]
fn add_unit(kernel: &mut [f32], bias: &mut f32, u: &Live, x: &[f32], field: &[usize]) {
    *bias += u.g;
    // zeiot-audit: allow(p1) -- receptive fields lie inside the input the forward pass checked
    let x = &x[u.corner..];
    let mut kernel = kernel.chunks_exact_mut(LANES);
    let mut terms = field.chunks_exact(LANES);
    for (gw, terms) in (&mut kernel).zip(&mut terms) {
        let mut xs = [0.0f32; LANES];
        for (xv, &term) in xs.iter_mut().zip(terms) {
            *xv = x[term];
        }
        for (gw, xv) in gw.iter_mut().zip(xs) {
            *gw += u.g * xv;
        }
    }
    let rest = kernel.into_remainder().iter_mut().zip(terms.remainder());
    for (gw, &term) in rest {
        *gw += u.g * x[term];
    }
}

/// Accumulates one dense layer's weight and bias gradients for input `x`
/// (arriving over `stage`) and output gradient `grad_out`, writing the
/// gradient reaching each input unit over `grad_in`.
fn dense_backward<T: Transport>(
    p: &mut Params,
    x: &[f32],
    grad_out: &[f32],
    at: &Assignment,
    stage: u64,
    t: &mut T,
    grad_in: &mut Vec<f32>,
) {
    grad_in.clear();
    grad_in.resize(x.len(), 0.0);
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
}

/// ReLU's backward, in place: the gradient passes where the
/// pre-activation was positive.
fn relu_mask(grad: &mut [f32], pre: &[f32]) {
    for (g, &v) in grad.iter_mut().zip(pre) {
        *g = if v > 0.0 { *g } else { 0.0 };
    }
}

/// The unit-at-a-time nests the blocked ones replaced, kept as the
/// references they must equal bit for bit. The forward: one conv unit
/// at a time with its kernel looked up in the replica map, one serial
/// chain per unit, a branch per max-pool compare, and one `dot` per
/// dense unit. The backward: the dense layers and un-pool as in the
/// blocked nest, then every conv unit in turn, skipped on a zero
/// gradient, its kernel looked up in the replica map.
#[cfg(test)]
mod reference {
    use super::{receptive_field, Domain, Edge, Lossy, Perfect, Transport};
    use crate::assignment::Assignment;
    use crate::distributed::{DistributedCnn, Layout, Params, WeightUpdate};
    use crate::lossy::{STAGE_CONV_POOL, STAGE_HIDDEN_LOGIT, STAGE_INPUT_CONV, STAGE_POOL_HIDDEN};
    use crate::quantized::QuantizedCnn;
    use zeiot_fault::{DegradeMode, Delivery};
    use zeiot_nn::quant::dot_i8;
    use zeiot_nn::tensor::Tensor;

    /// How the reference nest moves values: one edge at a time.
    trait Fetch {
        /// Carries one forward value over `edge`; `None` aborts the pass.
        fn fetch<D: Domain>(&mut self, v: f32, at: &Assignment, edge: Edge) -> Option<f32>;

        /// Carries a dense unit's whole input (element `i` from unit `i`)
        /// over `(stage, consumer)`.
        fn gather<'v, D: Domain>(
            &mut self,
            x: &'v [f32],
            buf: &'v mut Vec<f32>,
            at: &Assignment,
            (stage, consumer): (u64, usize),
        ) -> Option<&'v [f32]> {
            buf.clear();
            for (producer, &v) in x.iter().enumerate() {
                buf.push(self.fetch::<D>(v, at, (stage, producer, consumer))?);
            }
            Some(buf)
        }

        /// Brackets one consumer unit's fetches.
        fn open(&mut self);
        fn close(&mut self, hop: &'static str);
    }

    impl Fetch for Perfect {
        fn fetch<D: Domain>(&mut self, v: f32, _: &Assignment, _: Edge) -> Option<f32> {
            Some(v)
        }

        fn gather<'v, D: Domain>(
            &mut self,
            x: &'v [f32],
            _: &'v mut Vec<f32>,
            _: &Assignment,
            _: (u64, usize),
        ) -> Option<&'v [f32]> {
            Some(x)
        }

        fn open(&mut self) {}

        fn close(&mut self, _: &'static str) {}
    }

    /// One message at a time through `LinkFabric::transmit_over`, apart
    /// from the bursts the blocked nest sends: a colocated value is free;
    /// a corrupted payload is flipped; a lost one aborts the pass or is
    /// substituted here, by zero-fill's 0 or the edge's last delivered
    /// value, and counted `degraded`. Every received value is read
    /// through [`Domain::from_wire`].
    impl Fetch for Lossy<'_, '_, '_> {
        fn fetch<D: Domain>(&mut self, v: f32, at: &Assignment, edge: Edge) -> Option<f32> {
            let (stage, producer, consumer) = edge;
            let src = at.host_of(stage as usize, producer);
            let dst = at.host_of(stage as usize + 1, consumer);
            if src == dst {
                return Some(v);
            }
            let hops = self.rt.hops(src, dst);
            let mode = self.rt.fabric().policy().degrade_mode();
            let fabric = self.rt.fabric_mut();
            let got = match fabric.transmit_over(src, dst, hops) {
                Delivery::Delivered { corrupted, .. } => {
                    let seq = fabric.next_seq() - 1;
                    let got = if corrupted {
                        fabric.plan().corrupt_value(v, src, dst, seq)
                    } else {
                        v
                    };
                    if mode == Some(DegradeMode::LastValueHold) {
                        self.rt.hold(edge, got);
                    }
                    got
                }
                Delivery::Failed { .. } => {
                    let substitute = match mode? {
                        DegradeMode::ZeroFill => 0.0,
                        DegradeMode::LastValueHold => self.rt.held(edge),
                    };
                    self.rt.fabric_mut().note_degraded(1);
                    substitute
                }
            };
            Some(D::from_wire(got))
        }

        fn open(&mut self) {
            self.open_unit();
        }

        fn close(&mut self, hop: &'static str) {
            self.close_unit(hop);
        }
    }

    /// A domain's arithmetic as each unit computed it alone: `acc + w ·
    /// x`, and a dense unit's `bias + row · x`. The i8 domain computes in
    /// integers, over the i8 values of its activations' images.
    trait Dot: Domain {
        fn mac(acc: Self::Acc, w: Self::W, x: f32) -> Self::Acc;
        fn dot(bias: Self::Acc, row: &[Self::W], x: &[f32]) -> Self::Acc;
    }

    impl Dot for DistributedCnn {
        fn mac(acc: f32, w: f32, x: f32) -> f32 {
            acc + w * x
        }

        fn dot(bias: f32, row: &[f32], x: &[f32]) -> f32 {
            bias + row.iter().zip(x).map(|(w, v)| w * v).sum::<f32>()
        }
    }

    /// The i8 value an activation image holds.
    fn value(x: f32) -> i8 {
        assert_eq!(x, f32::from(x as i8), "{x} is not an i8 image");
        x as i8
    }

    impl Dot for QuantizedCnn {
        fn mac(acc: i32, w: i8, x: f32) -> i32 {
            acc + i32::from(w) * i32::from(value(x))
        }

        fn dot(bias: i32, row: &[i8], x: &[f32]) -> i32 {
            let x: Vec<i8> = x.iter().map(|&x| value(x)).collect();
            bias + dot_i8(row, &x)
        }
    }

    /// The kernel and bias of conv unit `unit` in output `channel`, looked
    /// up in the replica map.
    fn conv_kernel<D: Domain>(m: &D, unit: usize, channel: usize) -> (&[D::W], D::Acc) {
        let p = m.parts();
        let c = p.config;
        let kernel_len = c.in_channels() * c.kernel() * c.kernel();
        let (weights, bias, slot) = match p.per_unit {
            Some(pk) => (pk.weights(), pk.bias(), unit),
            None => {
                let rep = &p.replicas[&p.conv_unit_host[unit]];
                (rep.weights(), rep.bias(), channel)
            }
        };
        (
            &weights[slot * kernel_len..(slot + 1) * kernel_len],
            bias[slot],
        )
    }

    /// The unit-at-a-time forward pass.
    fn forward<D: Dot, T: Fetch>(m: &mut D, input: &Tensor, t: &mut T) -> Option<Tensor> {
        let mut admitted = Vec::new();
        let x = m.admit(input, &mut admitted);
        let c = *m.parts().config;
        let ((oh, ow), (ph, pw)) = (c.conv_dims(), c.pool_dims());
        let (oc, p, iw) = (c.conv_channels(), c.pool(), c.in_width());
        let field = receptive_field(&c);
        let [hop_conv, hop_pool, hop_hidden, hop_logit] = D::HOPS;

        let mut conv = Vec::with_capacity(oc * oh * ow);
        for o in 0..oc {
            for oy in 0..oh {
                for ox in 0..ow {
                    let unit = o * oh * ow + oy * ow + ox;
                    let (weights, bias) = conv_kernel(m, unit, o);
                    let at = m.parts().assignment;
                    t.open();
                    let mut acc = bias;
                    for (&w, &off) in weights.iter().zip(&field) {
                        let i = oy * iw + ox + off;
                        let v = t.fetch::<D>(x[i], at, (STAGE_INPUT_CONV, i, unit))?;
                        acc = D::mac(acc, w, v);
                    }
                    t.close(hop_conv);
                    conv.push(acc);
                }
            }
        }
        let mut relu = Vec::new();
        m.activate(1, &conv, &mut relu);

        let mut pooled = Vec::with_capacity(oc * ph * pw);
        let mut argmax = Vec::with_capacity(oc * ph * pw);
        let at = m.parts().assignment;
        for ch in 0..oc {
            for py in 0..ph {
                for px in 0..pw {
                    let punit = pooled.len();
                    t.open();
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
                    t.close(hop_pool);
                    pooled.push(best);
                    argmax.push(best_off);
                }
            }
        }
        m.pool_done(&pooled, &argmax);

        let mut buf = Vec::new();
        let hidden = dense(m, 0, &pooled, &mut buf, t, hop_hidden)?;
        let mut hidden_relu = Vec::new();
        m.activate(3, &hidden, &mut hidden_relu);
        let logits = dense(m, 1, &hidden_relu, &mut buf, t, hop_logit)?;
        Some(m.finish(input, &logits))
    }

    /// Dense layer `layer` (0: hidden, 1: logits) over `x`.
    fn dense<D: Dot, T: Fetch>(
        m: &D,
        layer: usize,
        x: &[f32],
        buf: &mut Vec<f32>,
        t: &mut T,
        hop: &'static str,
    ) -> Option<Vec<D::Acc>> {
        let p = m.parts();
        let (weights, bias) = (p.dense[layer].weights(), p.dense[layer].bias());
        let mut out = Vec::with_capacity(bias.len());
        for (unit, (row, &b)) in weights.chunks_exact(x.len()).zip(bias).enumerate() {
            t.open();
            let got = t.gather::<D>(x, buf, p.assignment, (layer as u64 + 2, unit))?;
            t.close(hop);
            out.push(D::dot(b, row, got));
        }
        Some(out)
    }

    /// The unit-at-a-time backward pass.
    fn backward<T: Transport>(net: &mut DistributedCnn, grad_logits: &Tensor, t: &mut T) {
        let input = net.last_input.as_ref().expect("backward before forward");
        let (at, c) = (&net.assignment, net.config);
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

        let mut grad_relu = vec![0.0f32; net.conv_pre_relu.len()];
        for (i, (&src, &g)) in net.pool_argmax.iter().zip(&grad_pool).enumerate() {
            if g != 0.0 {
                grad_relu[src] += t.gradient(g, at, (STAGE_CONV_POOL, src, i));
            }
        }
        let grad_conv = relu_mask(grad_relu, &net.conv_pre_relu);

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

    /// The update as it was: a synchronized model sums its replicas'
    /// gradients into fresh tensors; the other modes are unchanged. Its
    /// writes mark the packed weights stale, as the model's own do.
    fn apply_gradients(net: &mut DistributedCnn, lr: f32) {
        if net.update != WeightUpdate::Synchronized {
            return net.apply_gradients(lr);
        }
        net.work.invalidate_pack();
        let (oc, ic, k) = (
            net.config.conv_channels(),
            net.config.in_channels(),
            net.config.kernel(),
        );
        let mut total_w = Tensor::zeros(vec![oc, ic, k, k]);
        let mut total_b = Tensor::zeros(vec![oc]);
        for rep in net.replicas.values() {
            total_w.add_scaled(&rep.grad_weights, 1.0);
            total_b.add_scaled(&rep.grad_bias, 1.0);
        }
        for rep in net.replicas.values_mut() {
            rep.weights.add_scaled(&total_w, -lr);
            rep.bias.add_scaled(&total_b, -lr);
            rep.grad_weights.fill_zero();
            rep.grad_bias.fill_zero();
        }
        net.dense1.apply(lr);
        net.dense2.apply(lr);
    }

    /// One dense layer's backward, one edge at a time, returning the
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

    fn relu_mask(mut grad: Vec<f32>, pre: &[f32]) -> Vec<f32> {
        for (g, &v) in grad.iter_mut().zip(pre) {
            *g = if v > 0.0 { *g } else { 0.0 };
        }
        grad
    }

    mod proptests {
        use super::*;
        use crate::lossy::LossyRuntime;
        use crate::replace::{apply_offline, Migration, ReplaceConfig, ReplacementEngine};
        use crate::{CnnConfig, QuantStats};
        use proptest::prelude::*;
        use zeiot_core::id::NodeId;
        use zeiot_core::rng::SeedRng;
        use zeiot_core::time::{SimDuration, SimTime};
        use zeiot_fault::{DegradeMode, FaultPlan, FaultStats, RecoveryPolicy};
        use zeiot_net::Topology;
        use zeiot_nn::loss::cross_entropy;
        use zeiot_obs::trace::{SpanLayer, Trace, TraceSampler, Tracer};

        /// A value from a set heavy in exact ties and signed zeros, or a
        /// continuous one.
        fn value(rng: &mut SeedRng) -> f32 {
            const TIES: [f32; 7] = [-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0];
            match rng.below(3) {
                0 => TIES[rng.below(TIES.len())],
                _ => rng.normal_with(0.0, 0.7) as f32,
            }
        }

        fn fill(t: &mut Tensor, rng: &mut SeedRng) {
            for v in t.data_mut() {
                *v = value(rng);
            }
        }

        /// Gives every replica, per-unit kernel and dense table its own
        /// values, biases included, so lanes of one block run different
        /// kernels, and marks the packed weights stale.
        fn randomize(net: &mut DistributedCnn, rng: &mut SeedRng) {
            net.work.invalidate_pack();
            for rep in net.replicas.values_mut() {
                fill(&mut rep.weights, rng);
                fill(&mut rep.bias, rng);
            }
            let tables = net
                .per_unit
                .iter_mut()
                .chain([&mut net.dense1, &mut net.dense2]);
            for p in tables {
                fill(&mut p.weights, rng);
                fill(&mut p.bias, rng);
            }
        }

        fn input(c: &CnnConfig, rng: &mut SeedRng) -> Tensor {
            let mut x = Tensor::zeros(vec![c.in_channels(), c.in_height(), c.in_width()]);
            fill(&mut x, rng);
            x
        }

        /// The transport a case runs over: the perfect radio, or a fabric
        /// under one recovery policy. `PlainZeroFill` is zero-fill over a
        /// plan without corruption, as every experiment's plan, whose
        /// bursts take the fabric's fast path; the other lossy radios
        /// corrupt one delivered message in ten.
        #[derive(Debug, Clone, Copy)]
        enum Radio {
            Perfect,
            Lossless,
            ZeroFill,
            PlainZeroFill,
            LastValueHold,
            FailFast,
            Retransmit,
        }

        const RADIOS: [Radio; 7] = [
            Radio::Perfect,
            Radio::Lossless,
            Radio::ZeroFill,
            Radio::PlainZeroFill,
            Radio::LastValueHold,
            Radio::FailFast,
            Radio::Retransmit,
        ];

        /// A fresh runtime for `radio`; `loss` is the per-attempt loss of
        /// the aborting policies, low enough that some passes complete and
        /// the rest abort at any stage. Every lossy plan darkens node 0
        /// over the third and fourth passes.
        fn runtime(radio: Radio, topo: &Topology, seed: u64, loss: f64) -> Option<LossyRuntime> {
            let plan = |p: f64, corrupt: f64| {
                let plan =
                    FaultPlan::uniform(seed, p).and_then(|plan| plan.with_corruption(corrupt));
                let plan = plan.and_then(|plan| {
                    plan.with_outage(NodeId::new(0), SimTime::from_secs(1), SimTime::from_secs(2))
                });
                plan.expect("valid plan")
            };
            let lossy = |p: f64| plan(p, 0.1);
            let zero_fill = RecoveryPolicy::Degrade {
                mode: DegradeMode::ZeroFill,
            };
            let (plan, policy) = match radio {
                Radio::Perfect => return None,
                Radio::Lossless => (FaultPlan::lossless(), RecoveryPolicy::FailFast),
                Radio::ZeroFill => (lossy(0.2), zero_fill),
                Radio::PlainZeroFill => (plan(0.2, 0.0), zero_fill),
                Radio::LastValueHold => (
                    lossy(0.2),
                    RecoveryPolicy::Degrade {
                        mode: DegradeMode::LastValueHold,
                    },
                ),
                Radio::FailFast => (lossy(loss), RecoveryPolicy::FailFast),
                Radio::Retransmit => (
                    lossy(loss * 10.0),
                    RecoveryPolicy::Retransmit {
                        max_retries: 1,
                        timeout: SimDuration::from_millis(20),
                        backoff: 2.0,
                    },
                ),
            };
            Some(LossyRuntime::new(
                plan,
                policy,
                topo,
                SimDuration::from_millis(500),
            ))
        }

        /// One side's view after a pass: logits bits, fault counters and
        /// finished traces.
        #[derive(Debug, PartialEq)]
        struct Seen {
            logits: Option<Vec<u32>>,
            faults: Option<FaultStats>,
            traces: Vec<Trace>,
        }

        /// Runs one pass of `m` through the blocked nest (`blocked`) or the
        /// reference, over `rt` (perfect when `None`), traced when asked.
        fn pass<D: Dot>(
            m: &mut D,
            x: &Tensor,
            rt: Option<&mut LossyRuntime>,
            traced: bool,
            blocked: bool,
        ) -> Seen {
            let mut tracer = Tracer::new(TraceSampler::always());
            let logits = match rt {
                None if blocked => super::super::forward(m, x, &mut Perfect),
                None => forward(m, x, &mut Perfect),
                Some(rt) => {
                    let root =
                        tracer.begin(0, 0, "serve.request", SpanLayer::Request, SimTime::ZERO);
                    let out = {
                        let mut scope = root.and_then(|root| tracer.scope(0, 0, root));
                        let mut lossy = Lossy::new(rt, scope.as_mut().filter(|_| traced));
                        if blocked {
                            super::super::forward(m, x, &mut lossy)
                        } else {
                            forward(m, x, &mut lossy)
                        }
                    };
                    rt.advance_pass();
                    tracer.finish(0, 0, SimTime::ZERO);
                    return Seen {
                        logits: out.map(|l| l.data().iter().map(|v| v.to_bits()).collect()),
                        faults: Some(*rt.stats()),
                        traces: tracer.take_finished(),
                    };
                }
            };
            Seen {
                logits: logits.map(|l| l.data().iter().map(|v| v.to_bits()).collect()),
                faults: None,
                traces: Vec::new(),
            }
        }

        fn bits(v: &[f32]) -> Vec<u32> {
            v.iter().map(|v| v.to_bits()).collect()
        }

        /// Everything an f32 pass leaves behind for the backward pass.
        fn caches(net: &DistributedCnn) -> (Vec<Vec<u32>>, Vec<usize>, Option<Vec<u32>>) {
            let floats = [
                &net.conv_pre_relu,
                &net.pool_out,
                &net.hidden_pre_relu,
                &net.hidden_out,
            ];
            let input = net.last_input.as_ref().map(|x| bits(x.data()));
            (
                floats.map(|v| bits(v)).to_vec(),
                net.pool_argmax.clone(),
                input,
            )
        }

        fn stats(q: &QuantizedCnn) -> QuantStats {
            *q.stats()
        }

        /// Starts every gradient accumulator from generator values, so
        /// some hold −0.0 and adding a zero contribution would show.
        fn randomize_gradients(net: &mut DistributedCnn, rng: &mut SeedRng) {
            for rep in net.replicas.values_mut() {
                fill(&mut rep.grad_weights, rng);
                fill(&mut rep.grad_bias, rng);
            }
            let tables = net
                .per_unit
                .iter_mut()
                .chain([&mut net.dense1, &mut net.dense2]);
            for p in tables {
                fill(&mut p.grad_weights, rng);
                fill(&mut p.grad_bias, rng);
            }
        }

        /// One training sample over `t`: the blocked forward, then, when
        /// it completes, cross-entropy and the blocked backward
        /// (`blocked`) or the reference.
        fn step<T: Transport>(
            net: &mut DistributedCnn,
            (x, target): &(Tensor, usize),
            t: &mut T,
            blocked: bool,
        ) {
            let logits = super::super::forward(net, x, t);
            if let Some(logits) = &logits {
                let (_, grad) = cross_entropy(logits, *target);
                if blocked {
                    super::super::backward(net, &grad, t);
                } else {
                    backward(net, &grad, t);
                }
            }
            t.end_sample(logits.is_some());
        }

        /// [`step`] over `rt`, or the perfect radio when `None`.
        fn sample(
            net: &mut DistributedCnn,
            example: &(Tensor, usize),
            rt: Option<&mut LossyRuntime>,
            blocked: bool,
        ) {
            match rt {
                None => step(net, example, &mut Perfect, blocked),
                Some(rt) => step(net, example, &mut Lossy::new(rt, None), blocked),
            }
        }

        /// Every kernel, bias and dense table, or its gradient, as bits:
        /// each replica's, then the per-unit kernels, dense 1 and dense 2.
        fn tables(net: &DistributedCnn, gradients: bool) -> Vec<Vec<u32>> {
            let pick = |w: &Tensor, gw: &Tensor| {
                if gradients {
                    bits(gw.data())
                } else {
                    bits(w.data())
                }
            };
            let replicas = net.replicas.values().flat_map(|r| {
                [
                    pick(&r.weights, &r.grad_weights),
                    pick(&r.bias, &r.grad_bias),
                ]
            });
            let params = net.per_unit.iter().chain([&net.dense1, &net.dense2]);
            let params = params.flat_map(|p| {
                [
                    pick(&p.weights, &p.grad_weights),
                    pick(&p.bias, &p.grad_bias),
                ]
            });
            replicas.chain(params).collect()
        }

        /// What one step of the stale-pack case changes.
        #[derive(Debug, Clone, Copy)]
        enum Change {
            /// Two training samples, then the model's update or the
            /// reference's.
            Train { reference: bool },
            /// A conv unit to a node without a replica, or to another
            /// node with one.
            Conv { to_replica: bool },
            /// Every conv unit of one host to other nodes: the host loses
            /// its last unit and its replica.
            EmptyHost,
            /// A pool, hidden or logit unit to another node.
            Stateless,
            /// A `ReplacementEngine` poll over a fabric whose outage
            /// darkens a conv host from the first poll until the third.
            Poll,
        }

        const CHANGES: [Change; 10] = [
            Change::Train { reference: false },
            Change::Train { reference: true },
            Change::Conv { to_replica: false },
            Change::Conv { to_replica: true },
            Change::EmptyHost,
            Change::Stateless,
            Change::Poll,
            Change::Poll,
            Change::Poll,
            Change::Train { reference: false },
        ];

        /// Moves unit `unit` of layer `layer` to `to` through
        /// `apply_offline`; a move onto its own host is skipped.
        fn migrate(net: &mut DistributedCnn, layer: usize, unit: usize, to: NodeId) {
            let from = net.assignment().host_of(layer, unit);
            if from != to {
                let graph = net.config().unit_graph().expect("valid graph");
                let m = Migration {
                    layer,
                    unit,
                    from,
                    to,
                };
                apply_offline(net, &graph, &[m], &[]);
            }
        }

        /// A node of `topo` other than `not`, drawn from `rng`.
        fn other(topo: &Topology, not: NodeId, rng: &mut SeedRng) -> NodeId {
            let nodes: Vec<NodeId> = topo.node_ids().filter(|&n| n != not).collect();
            *rng.choose(&nodes).expect("at least two nodes")
        }

        /// Applies `change` to `net`, drawing its units and nodes from
        /// `rng`; `fabric` is the poll's runtime and engine, built on
        /// the first poll.
        fn apply(
            change: Change,
            net: &mut DistributedCnn,
            examples: &[(Tensor, usize)],
            topo: &Topology,
            fabric: &mut Option<(LossyRuntime, ReplacementEngine)>,
            rng: &mut SeedRng,
        ) {
            let conv_units = net.conv_unit_host.len();
            match change {
                Change::Train { reference } => {
                    for example in examples.iter().take(2) {
                        step(net, example, &mut Perfect, true);
                    }
                    if reference {
                        apply_gradients(net, 0.05);
                    } else {
                        net.apply_gradients(0.05);
                    }
                }
                Change::Conv { to_replica } => {
                    let unit = rng.below(conv_units);
                    let from = net.conv_unit_host[unit];
                    let nodes: Vec<NodeId> = topo
                        .node_ids()
                        .filter(|n| *n != from && net.replicas.contains_key(n) == to_replica)
                        .collect();
                    let to = match rng.choose(&nodes) {
                        Some(&to) => to,
                        None => other(topo, from, rng),
                    };
                    migrate(net, 1, unit, to);
                }
                Change::EmptyHost => {
                    let hosts: Vec<NodeId> = net.replicas.keys().copied().collect();
                    let host = *rng.choose(&hosts).expect("a conv host");
                    for unit in 0..conv_units {
                        if net.conv_unit_host[unit] == host {
                            let to = other(topo, host, rng);
                            migrate(net, 1, unit, to);
                        }
                    }
                    assert!(
                        !net.replicas.contains_key(&host),
                        "{host:?} kept its replica"
                    );
                }
                Change::Stateless => {
                    let layer = 2 + rng.below(3);
                    let unit = rng.below(net.assignment().layer_sizes()[layer - 1]);
                    let to = other(topo, net.assignment().host_of(layer, unit), rng);
                    migrate(net, layer, unit, to);
                }
                Change::Poll => {
                    let (rt, engine) = fabric.get_or_insert_with(|| {
                        let dark = net.conv_unit_host[rng.below(conv_units)];
                        let plan = FaultPlan::lossless()
                            .with_outage(dark, SimTime::ZERO, SimTime::from_millis(1500))
                            .expect("valid window");
                        let period = SimDuration::from_millis(500);
                        let rt = LossyRuntime::new(plan, RecoveryPolicy::FailFast, topo, period);
                        let engine =
                            ReplacementEngine::new(ReplaceConfig::incremental(usize::MAX), topo);
                        // The first poll runs at the outage's start.
                        (rt, engine)
                    });
                    if engine.stats().epochs > 0 {
                        rt.advance_pass();
                        rt.advance_pass();
                    }
                    engine.poll(net, rt, None);
                }
            }
        }

        /// An f32 model of `config` on a 3×3 grid whose every weight is
        /// ±1, so each freezes to ±127 at its layer's scale: every conv
        /// kernel +1, dense rows +1 and −1 by turns. Biases come from
        /// `rng`.
        fn saturating_model(config: CnnConfig, rng: &mut SeedRng) -> (DistributedCnn, Topology) {
            let topo = Topology::grid(3, 3, 2.0, 3.0).expect("valid grid");
            let graph = config.unit_graph().expect("valid graph");
            let assignment = Assignment::balanced_correspondence(&graph, &topo);
            let update = WeightUpdate::Independent;
            let mut net = DistributedCnn::new(config, assignment, update, rng);
            randomize(&mut net, rng);
            for rep in net.replicas.values_mut() {
                rep.weights.data_mut().fill(1.0);
            }
            for dense in [&mut net.dense1, &mut net.dense2] {
                let n = dense.weights.shape()[1];
                for (row, weights) in dense.weights.data_mut().chunks_exact_mut(n).enumerate() {
                    weights.fill(if row % 2 == 0 { 1.0 } else { -1.0 });
                }
            }
            (net, topo)
        }

        /// An input of `config`'s shape with every value `v`, or ±`v` by
        /// draws from `rng` when `signs`.
        fn level(config: &CnnConfig, v: f32, signs: Option<&mut SeedRng>) -> Tensor {
            let mut x = Tensor::zeros(vec![
                config.in_channels(),
                config.in_height(),
                config.in_width(),
            ]);
            x.data_mut().fill(v);
            if let Some(rng) = signs {
                for x in x.data_mut() {
                    *x *= if rng.below(2) == 0 { 1.0 } else { -1.0 };
                }
            }
            x
        }

        /// Int8 lanes stay exact where their sums are largest. Each config
        /// freezes a model whose weights are all ±127, calibrated on
        /// inputs of ±1, and feeds inputs of ±10, which saturate at
        /// ±127: the accumulators reach n · 127² for a fan-in of n, past
        /// the 2^22 an f32 run holds exactly. The lounge CNN's dense-1
        /// sums 308 terms (≈ 4.97M), the second config's conv 392
        /// (≈ 6.32M), the third's dense-1 1,444 (≈ 23.3M, past even the
        /// 2^24 of exact f32 integers). Over the perfect radio and every
        /// lossy one, where a block's unused lanes hold the −128 floor,
        /// the blocked logits equal the integer reference's by `to_bits`,
        /// and so do the saturation counters.
        #[test]
        fn int8_lanes_are_exact_at_the_accumulation_bound() {
            let configs = [
                // The lounge CNN: dense-1 has 308 inputs.
                (CnnConfig::new(1, 17, 25, 4, 4, 2, 32, 2), 3),
                // Conv fan-in 8 · 7 · 7 = 392.
                (CnnConfig::new(8, 10, 10, 2, 7, 2, 4, 2), 1),
                // Dense-1 fan-in 4 · 19 · 19 = 1,444.
                (CnnConfig::new(1, 40, 40, 4, 3, 2, 8, 2), 3),
            ];
            for (seed, (config, layer)) in configs.into_iter().enumerate() {
                let config = config.expect("valid config");
                let mut rng = SeedRng::new(seed as u64);
                let (mut net, topo) = saturating_model(config, &mut rng);
                let calibration = [
                    level(&config, 1.0, None),
                    level(&config, 1.0, Some(&mut rng)),
                ];
                let q = QuantizedCnn::new(&mut net, &calibration);
                let p = q.parts();
                let tables = p.replicas.values().chain(p.dense);
                assert!(tables.flat_map(|t| t.weights()).all(|w| w.abs() == 127));
                let inputs = [
                    level(&config, 10.0, None),
                    level(&config, -10.0, None),
                    level(&config, 10.0, Some(&mut rng)),
                    level(&config, 0.7, Some(&mut rng)),
                ];

                // The accumulators the config is built to stress pass 2^22.
                let mut probe = q.clone();
                let _ = super::super::forward(&mut probe, &inputs[0], &mut Perfect);
                let work = probe.work();
                let sums = if layer == 1 { &work.conv } else { &work.hidden };
                let peak = sums.iter().map(|s| s.unsigned_abs()).max();
                assert!(peak > Some(1 << 22), "{config:?}: {peak:?}");

                for radio in RADIOS {
                    let (mut a, mut b) = (q.clone(), q.clone());
                    let (mut rt_a, mut rt_b) = (
                        runtime(radio, &topo, 7, 0.01),
                        runtime(radio, &topo, 7, 0.01),
                    );
                    for x in &inputs {
                        let blocked = pass(&mut a, x, rt_a.as_mut(), false, true);
                        let reference = pass(&mut b, x, rt_b.as_mut(), false, false);
                        assert_eq!(blocked, reference, "{config:?} {radio:?}");
                        assert_eq!(stats(&a), stats(&b), "{config:?} {radio:?}");
                    }
                    assert!(stats(&a).input_saturated > 0);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The blocked nest equals the unit-at-a-time reference bit for
            /// bit over random configs (conv rows narrower than a block and
            /// not a multiple of it, hidden widths likewise), every weight
            /// update mode, f32 and i8, the perfect radio and a lossy fabric
            /// under every recovery policy, with and without corruption,
            /// traced and untraced: logits, forward caches, quantization
            /// counters, fault counters and hop spans, pass after pass on
            /// one shared runtime per side. The blocked side sends each
            /// unit as one burst and the reference sends one message at a
            /// time, so the fabric's burst is held to its single messages.
            #[test]
            fn blocked_forward_equals_the_unit_at_a_time_reference(
                shape in (1usize..3, 1usize..4, 1usize..5, 1usize..4),
                pooled in (1usize..4, 1usize..7, 1usize..20, 2usize..4),
                grid in (1usize..4, 1usize..4),
                update in 0usize..3,
                radio in 0usize..RADIOS.len(),
                loss in 0.0005f64..0.02,
                traced in proptest::bool::ANY,
                seed in 0u64..u64::MAX,
            ) {
                let ((ic, oc, k, pool), (ph, pw, hidden, classes)) = (shape, pooled);
                let config =
                    CnnConfig::new(ic, pool * ph + k - 1, pool * pw + k - 1, oc, k, pool, hidden, classes)
                        .expect("valid config");
                let topo = Topology::grid(grid.0, grid.1, 2.0, 3.0).expect("valid grid");
                let graph = config.unit_graph().expect("valid graph");
                let assignment = Assignment::balanced_correspondence(&graph, &topo);
                let update = [WeightUpdate::Synchronized, WeightUpdate::Independent, WeightUpdate::PerUnit][update];
                let mut rng = SeedRng::new(seed);
                let mut net = DistributedCnn::new(config, assignment, update, &mut rng);
                randomize(&mut net, &mut rng);
                let inputs: Vec<Tensor> = (0..4).map(|_| input(&config, &mut rng)).collect();
                let radio = RADIOS[radio];

                // f32.
                let (mut a, mut b) = (net.clone(), net.clone());
                let (mut rt_a, mut rt_b) = (runtime(radio, &topo, seed, loss), runtime(radio, &topo, seed, loss));
                for x in &inputs {
                    let blocked = pass(&mut a, x, rt_a.as_mut(), traced, true);
                    let reference = pass(&mut b, x, rt_b.as_mut(), traced, false);
                    prop_assert_eq!(&blocked, &reference, "{:?} {:?}", radio, update);
                    prop_assert_eq!(caches(&a), caches(&b));
                }

                // i8, frozen from the same model.
                let q = QuantizedCnn::new(&mut net, &inputs);
                let (mut a, mut b) = (q.clone(), q);
                let (mut rt_a, mut rt_b) = (runtime(radio, &topo, seed, loss), runtime(radio, &topo, seed, loss));
                for x in &inputs {
                    let blocked = pass(&mut a, x, rt_a.as_mut(), traced, true);
                    let reference = pass(&mut b, x, rt_b.as_mut(), traced, false);
                    prop_assert_eq!(&blocked, &reference, "i8 {:?} {:?}", radio, update);
                    prop_assert_eq!(stats(&a), stats(&b));
                }
            }

            /// The blocked backward equals the unit-at-a-time reference bit
            /// for bit over random configs (kernels shorter than a lane
            /// block and not a multiple of it), every weight update mode,
            /// and the perfect radio and a lossy fabric under every recovery
            /// policy. Several samples of forward, cross-entropy and backward
            /// accumulate into gradient tables that start from generator
            /// values, then one update applies them: every gradient table,
            /// the updated weights, and the fault counters match.
            #[test]
            fn blocked_backward_equals_the_unit_at_a_time_reference(
                shape in (1usize..3, 1usize..4, 1usize..5, 1usize..4),
                pooled in (1usize..4, 1usize..7, 1usize..20, 2usize..4),
                grid in (1usize..4, 1usize..4),
                update in 0usize..3,
                radio in 0usize..RADIOS.len(),
                loss in 0.0005f64..0.02,
                seed in 0u64..u64::MAX,
            ) {
                let ((ic, oc, k, pool), (ph, pw, hidden, classes)) = (shape, pooled);
                let config =
                    CnnConfig::new(ic, pool * ph + k - 1, pool * pw + k - 1, oc, k, pool, hidden, classes)
                        .expect("valid config");
                let topo = Topology::grid(grid.0, grid.1, 2.0, 3.0).expect("valid grid");
                let graph = config.unit_graph().expect("valid graph");
                let assignment = Assignment::balanced_correspondence(&graph, &topo);
                let update = [WeightUpdate::Synchronized, WeightUpdate::Independent, WeightUpdate::PerUnit][update];
                let mut rng = SeedRng::new(seed);
                let mut net = DistributedCnn::new(config, assignment, update, &mut rng);
                randomize(&mut net, &mut rng);
                randomize_gradients(&mut net, &mut rng);
                let examples: Vec<(Tensor, usize)> =
                    (0..4).map(|_| (input(&config, &mut rng), rng.below(classes))).collect();
                let radio = RADIOS[radio];

                let (mut a, mut b) = (net.clone(), net);
                let (mut rt_a, mut rt_b) = (runtime(radio, &topo, seed, loss), runtime(radio, &topo, seed, loss));
                for example in &examples {
                    sample(&mut a, example, rt_a.as_mut(), true);
                    sample(&mut b, example, rt_b.as_mut(), false);
                }
                prop_assert_eq!(tables(&a, true), tables(&b, true), "{:?} {:?}", radio, update);
                let faults = |rt: &Option<LossyRuntime>| rt.as_ref().map(|rt| *rt.stats());
                prop_assert_eq!(faults(&rt_a), faults(&rt_b));
                a.apply_gradients(0.05);
                apply_gradients(&mut b, 0.05);
                prop_assert_eq!(tables(&a, false), tables(&b, false), "{:?} {:?}", radio, update);
            }

            /// The packed weights follow every change to what the forward
            /// reads. Over random configs on meshes of two or more nodes,
            /// every weight update mode, f32 and i8, a shuffled script of
            /// steps runs: training samples ending in the model's update
            /// or the reference's, single-unit migrations through
            /// `replace::apply_offline` (conv units to nodes with and
            /// without a replica, every conv unit off one host, pool and
            /// dense units), and `ReplacementEngine` polls over a fabric
            /// with an outage. The int8 model is frozen from the f32 one
            /// first and resynced after every step. After each step both
            /// models' blocked forwards equal the reference, which reads
            /// the replica map directly, by `to_bits`.
            #[test]
            fn packed_weights_follow_every_parameter_and_placement_change(
                shape in (1usize..3, 1usize..4, 1usize..5, 1usize..4),
                pooled in (1usize..4, 1usize..7, 1usize..20, 2usize..4),
                grid in (2usize..4, 1usize..4),
                update in 0usize..3,
                seed in 0u64..u64::MAX,
            ) {
                let ((ic, oc, k, pool), (ph, pw, hidden, classes)) = (shape, pooled);
                let config =
                    CnnConfig::new(ic, pool * ph + k - 1, pool * pw + k - 1, oc, k, pool, hidden, classes)
                        .expect("valid config");
                let topo = Topology::grid(grid.0, grid.1, 2.0, 3.0).expect("valid grid");
                let graph = config.unit_graph().expect("valid graph");
                let assignment = Assignment::balanced_correspondence(&graph, &topo);
                let update = [WeightUpdate::Synchronized, WeightUpdate::Independent, WeightUpdate::PerUnit][update];
                let mut rng = SeedRng::new(seed);
                let mut net = DistributedCnn::new(config, assignment, update, &mut rng);
                randomize(&mut net, &mut rng);
                let examples: Vec<(Tensor, usize)> =
                    (0..4).map(|_| (input(&config, &mut rng), rng.below(classes))).collect();
                let calibration: Vec<Tensor> = examples.iter().map(|(x, _)| x.clone()).collect();
                let mut q = QuantizedCnn::new(&mut net, &calibration);
                let mut script = CHANGES;
                rng.shuffle(&mut script);
                let mut fabric = None;
                for (i, change) in script.into_iter().enumerate() {
                    apply(change, &mut net, &examples, &topo, &mut fabric, &mut rng);
                    q.resync_placement(&net);
                    let x = &examples[i % examples.len()].0;
                    let blocked = super::super::forward(&mut net, x, &mut Perfect).map(|l| bits(l.data()));
                    let reference = forward(&mut net, x, &mut Perfect).map(|l| bits(l.data()));
                    prop_assert_eq!(blocked, reference, "f32 {:?} after {:?}", update, change);
                    let blocked = super::super::forward(&mut q, x, &mut Perfect).map(|l| bits(l.data()));
                    let reference = forward(&mut q, x, &mut Perfect).map(|l| bits(l.data()));
                    prop_assert_eq!(blocked, reference, "i8 {:?} after {:?}", update, change);
                }
            }
        }
    }
}
