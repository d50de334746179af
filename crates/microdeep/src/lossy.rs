//! Lossy distributed execution.
//!
//! The plain [`DistributedCnn`] forward/backward passes assume a perfect
//! radio fabric: every cross-node activation and gradient arrives intact.
//! This module executes the same network through a
//! [`zeiot_fault::LinkFabric`], so every CNN edge whose producer and
//! consumer live on different nodes becomes a real message that can be
//! dropped, delayed into a brownout window, retransmitted, corrupted, or
//! substituted by a degrade policy.
//!
//! Determinism contract: with [`zeiot_fault::FaultPlan::lossless`] the
//! lossy pass is **byte-for-byte identical** to the plain pass by
//! construction. Both run the crate's one forward and backward loop
//! nests; the plain pass moves values over a perfect transport, this one
//! over the fabric, whose lossless fast path never perturbs a value. The
//! equivalence tests below remain as guards. Under faults, all loss
//! decisions are pure hashes of the message coordinates, so a run is
//! reproducible across thread counts and repetitions.
//!
//! Recovery semantics per [`RecoveryPolicy`]:
//!
//! * `FailFast` — the first lost forward message aborts the inference
//!   ([`DistributedCnn::forward_lossy`] returns `None`).
//! * `Retransmit` — each lost message is retried on the fabric's
//!   simulated-time backoff schedule; exhaustion aborts like `FailFast`.
//! * `Degrade` — lost values are substituted (zero, or the last value
//!   delivered on that edge) and the inference continues degraded.
//!
//! Backward gradient messages never abort the pass under any policy:
//! a lost gradient contribution is simply lost mass (zero-filled), which
//! both matches how a real mesh would behave — the producer cannot block
//! an entire distributed epoch on one edge — and keeps
//! `Retransmit { max_retries: 0 }` exactly equivalent to `FailFast`.
//! Weight gradients use the locally cached producer-side activations (a
//! node always has its own forward values), a deliberate simplification
//! over tracking every consumer's possibly-corrupted copy.

use crate::distributed::DistributedCnn;
use crate::exec::{self, Lossy};
use std::collections::BTreeMap;
use zeiot_core::id::NodeId;
use zeiot_core::rng::SeedRng;
use zeiot_core::time::SimDuration;
use zeiot_fault::{DegradeMode, Delivery, FaultPlan, FaultStats, LinkFabric, RecoveryPolicy};
use zeiot_net::routing::RoutingTable;
use zeiot_net::topology::Topology;
use zeiot_nn::tensor::Tensor;
use zeiot_obs::trace::{ClockDomain, SpanEvent, SpanId, SpanLayer, SpanScope};
use zeiot_obs::{Label, Recorder};

/// Edge stages, used to key last-value-hold state (shared with the
/// quantized runtime in [`crate::quantized`], which transports the same
/// logical edges).
pub(crate) const STAGE_INPUT_CONV: u64 = 0;
pub(crate) const STAGE_CONV_POOL: u64 = 1;
pub(crate) const STAGE_POOL_HIDDEN: u64 = 2;
pub(crate) const STAGE_HIDDEN_LOGIT: u64 = 3;

/// Public edge stage reserved for non-CNN tenants (sensing feature
/// gathers in `zeiot-scenario`); disjoint from the CNN stages 0–3 so
/// last-value-hold caches never alias across model kinds.
pub const STAGE_SENSING: u64 = 4;

fn edge_key(stage: u64, producer: usize, consumer: usize) -> u64 {
    (stage << 56) | ((producer as u64) << 28) | consumer as u64
}

/// The transport state a lossy pass runs against: the fault fabric, the
/// mesh routes (for hop-accurate recovery latency), and the
/// last-value-hold cache.
#[derive(Debug)]
pub struct LossyRuntime {
    fabric: LinkFabric,
    routes: RoutingTable,
    /// Last value delivered per edge, for `DegradeMode::LastValueHold`.
    last_seen: BTreeMap<u64, f32>,
    /// Simulated time one full inference pass occupies; advanced after
    /// every sample so brownout windows move across the run.
    pass_period: SimDuration,
}

impl LossyRuntime {
    /// Builds a runtime over `topo`'s shortest-path routes. `pass_period`
    /// is how much simulated time each inference pass advances the
    /// fabric's clock (one sensing cycle).
    pub fn new(
        plan: FaultPlan,
        policy: RecoveryPolicy,
        topo: &Topology,
        pass_period: SimDuration,
    ) -> Self {
        Self {
            fabric: LinkFabric::new(plan, policy),
            routes: RoutingTable::shortest_paths(topo),
            last_seen: BTreeMap::new(),
            pass_period,
        }
    }

    /// The running fault counters.
    pub fn stats(&self) -> &FaultStats {
        self.fabric.stats()
    }

    /// The underlying fabric (clock, plan, policy).
    pub fn fabric(&self) -> &LinkFabric {
        &self.fabric
    }

    /// Writes the fault counters into `recorder` under `label`.
    pub fn record_to(&self, recorder: &mut Recorder, label: Label) {
        self.fabric.stats().record_to(recorder, label);
    }

    /// Advances the fabric clock by one pass period.
    pub fn advance_pass(&mut self) {
        let period = self.pass_period;
        self.fabric.advance(period);
    }

    /// Counts a consuming computation the caller had to give up on (a
    /// [`DistributedCnn::forward_lossy`] that returned `None`); external
    /// drivers such as a serving layer use this to keep the fabric's
    /// `aborted` stat honest.
    pub fn note_aborted(&mut self) {
        self.fabric.note_aborted();
    }

    /// Mutable fabric access for in-crate transports that are not
    /// per-edge fetches (the re-placement engine's state handoffs).
    pub(crate) fn fabric_mut(&mut self) -> &mut LinkFabric {
        &mut self.fabric
    }

    pub(crate) fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        self.routes.hop_distance(src, dst).unwrap_or(1).max(1) as u32
    }

    /// Transports one scalar over the edge `(stage, producer,
    /// consumer)` — the per-edge fetch the distributed CNN runs on, also
    /// public for external estimators (sensing tenants) that gather
    /// features over the same lossy fabric. Colocated endpoints are free
    /// (no message, no stats), matching [`crate::cost::CostModel`]'s
    /// counting; `None` means the message was lost and the recovery
    /// policy does not degrade. External callers should use a stage at
    /// or above [`STAGE_SENSING`] so their last-value-hold state never
    /// collides with the CNN's edges.
    pub fn transport(
        &mut self,
        value: f32,
        src: NodeId,
        dst: NodeId,
        stage: u64,
        producer: usize,
        consumer: usize,
    ) -> Option<f32> {
        if src == dst {
            return Some(value);
        }
        let key = edge_key(stage, producer, consumer);
        if let Some(got) = self.deliver(value, src, dst) {
            self.last_seen.insert(key, got);
            return Some(got);
        }
        let substitute = match self.fabric.policy().degrade_mode()? {
            DegradeMode::ZeroFill => 0.0,
            DegradeMode::LastValueHold => self.last_seen.get(&key).copied().unwrap_or(0.0),
        };
        self.fabric.note_degraded();
        Some(substitute)
    }

    /// Transports one backward gradient contribution; losses zero-fill
    /// under every policy (see the module docs).
    pub(crate) fn fetch_gradient(&mut self, grad: f32, src: NodeId, dst: NodeId) -> f32 {
        if src == dst {
            return grad;
        }
        self.deliver(grad, src, dst).unwrap_or(0.0)
    }

    /// One cross-node message: what arrives (corruption applied), or
    /// `None` once the fabric's recovery policy has given up on it.
    fn deliver(&mut self, value: f32, src: NodeId, dst: NodeId) -> Option<f32> {
        let hops = self.hops(src, dst);
        match self.fabric.transmit_over(src, dst, hops) {
            Delivery::Delivered {
                corrupted: true, ..
            } => {
                let seq = self.fabric.next_seq() - 1;
                Some(self.fabric.plan().corrupt_value(value, src, dst, seq))
            }
            Delivery::Delivered { .. } => Some(value),
            Delivery::Failed { .. } => None,
        }
    }
}

/// Brackets one consumer unit's burst of cross-node fetches: fault
/// counters and fabric clock copied before, deltas turned into a hop
/// span after. If the burst aborts mid-way (`?`) the probe is simply
/// dropped — no span, matching "the unit never finished pulling".
pub struct HopProbe {
    before: FaultStats,
    t0: zeiot_core::time::SimTime,
}

impl HopProbe {
    /// Opens a probe at the fabric's current counters and clock.
    pub fn open(rt: &LossyRuntime) -> Self {
        Self {
            before: *rt.stats(),
            t0: rt.fabric.now(),
        }
    }

    /// Emits a fabric-clock hop span under `scope` if the unit actually
    /// pulled any cross-node message (colocated fetches are free and
    /// leave no span), and returns it so the caller can annotate it.
    pub fn close(
        self,
        rt: &LossyRuntime,
        scope: &mut SpanScope<'_>,
        name: &'static str,
    ) -> Option<SpanId> {
        let d = rt.stats().delta_since(&self.before);
        if d.sent == 0 {
            return None;
        }
        let t1 = rt.fabric.now();
        let span = scope.push_span(SpanLayer::Hop, name, ClockDomain::Fabric, self.t0, t1);
        scope.event(span, t1, SpanEvent::Messages { sent: d.sent });
        if d.drops > 0 {
            scope.event(span, t1, SpanEvent::Loss { drops: d.drops });
        }
        if d.retries > 0 {
            scope.event(span, t1, SpanEvent::Retransmit { retries: d.retries });
        }
        if d.degraded + d.corrupted > 0 {
            scope.event(
                span,
                t1,
                SpanEvent::Degraded {
                    substituted: d.degraded + d.corrupted,
                },
            );
        }
        Some(span)
    }
}

impl DistributedCnn {
    /// Forward pass through a lossy fabric. Returns `None` when a lost
    /// message aborts the inference (fail-fast, or retransmission
    /// exhausted); under a degrade policy the pass always completes.
    ///
    /// With a lossless plan this is byte-for-byte identical to
    /// [`DistributedCnn::forward`].
    ///
    /// # Panics
    ///
    /// Panics if the input shape disagrees with the config.
    pub fn forward_lossy(&mut self, input: &Tensor, rt: &mut LossyRuntime) -> Option<Tensor> {
        self.forward_lossy_traced(input, rt, None)
    }

    /// [`DistributedCnn::forward_lossy`] with per-unit hop spans pushed
    /// under `scope` (when given): every consumer unit that pulls at
    /// least one cross-node message contributes a fabric-clock
    /// [`SpanLayer::Hop`] span (`hop.conv`, `hop.pool`, `hop.hidden`,
    /// `hop.logit`) annotated with message/loss/retransmit/degrade
    /// counts. With `scope = None` this **is** `forward_lossy` — the
    /// probes are never opened, so the untraced path is unchanged
    /// byte-for-byte.
    ///
    /// # Panics
    ///
    /// Panics if the input shape disagrees with the config.
    pub fn forward_lossy_traced(
        &mut self,
        input: &Tensor,
        rt: &mut LossyRuntime,
        scope: Option<&mut SpanScope<'_>>,
    ) -> Option<Tensor> {
        exec::forward(self, input, &mut Lossy::new(rt, scope))
    }

    /// Trains one epoch through a lossy fabric; aborted samples (lost
    /// messages under a non-degrading policy) are skipped and counted via
    /// the fabric's `aborted` stat. Returns the mean loss over completed
    /// samples, or `None` if every sample aborted.
    ///
    /// With a lossless plan this trains byte-for-byte identically to
    /// [`DistributedCnn::train_epoch`].
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `batch_size` is zero.
    pub fn train_epoch_lossy(
        &mut self,
        data: &[(Tensor, usize)],
        lr: f32,
        batch_size: usize,
        rng: &mut SeedRng,
        rt: &mut LossyRuntime,
    ) -> Option<f32> {
        let (total, completed) =
            self.epoch(data, lr, batch_size, rng, &mut Lossy::new(rt, None), None);
        (completed > 0).then(|| total / completed as f32)
    }

    /// Accuracy over a labelled set through a lossy fabric; an aborted
    /// inference counts as a misclassification (the mesh produced no
    /// answer).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn accuracy_lossy(&mut self, data: &[(Tensor, usize)], rt: &mut LossyRuntime) -> f64 {
        exec::accuracy(self, data, &mut Lossy::new(rt, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::Assignment;
    use crate::config::CnnConfig;
    use crate::distributed::WeightUpdate;

    fn small_setup(
        update: WeightUpdate,
        seed: u64,
    ) -> (DistributedCnn, Vec<(Tensor, usize)>, Topology) {
        let config = CnnConfig::new(1, 8, 8, 2, 3, 2, 8, 2).unwrap();
        let topo = Topology::grid(3, 3, 2.0, 3.0).unwrap();
        let graph = config.unit_graph().unwrap();
        let assignment = Assignment::balanced_correspondence(&graph, &topo);
        let mut rng = SeedRng::new(seed);
        let net = DistributedCnn::new(config, assignment, update, &mut rng);

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
        (net, data, topo)
    }

    fn runtime(plan: FaultPlan, policy: RecoveryPolicy, topo: &Topology) -> LossyRuntime {
        LossyRuntime::new(plan, policy, topo, SimDuration::from_millis(500))
    }

    #[test]
    fn lossless_forward_is_bit_identical_to_plain_forward() {
        for update in [
            WeightUpdate::Synchronized,
            WeightUpdate::Independent,
            WeightUpdate::PerUnit,
        ] {
            let (mut a, data, topo) = small_setup(update, 5);
            let (mut b, _, _) = small_setup(update, 5);
            let mut rt = runtime(FaultPlan::lossless(), RecoveryPolicy::FailFast, &topo);
            for (x, _) in data.iter().take(8) {
                let plain = a.forward(x);
                let lossy = b.forward_lossy(x, &mut rt).expect("lossless never aborts");
                assert_eq!(plain.data(), lossy.data(), "{update:?}");
            }
        }
    }

    #[test]
    fn lossless_training_is_bit_identical_to_plain_training() {
        for update in [
            WeightUpdate::Synchronized,
            WeightUpdate::Independent,
            WeightUpdate::PerUnit,
        ] {
            let (mut plain, data, topo) = small_setup(update, 6);
            let (mut lossy, _, _) = small_setup(update, 6);
            let mut rng_a = SeedRng::new(3);
            let mut rng_b = SeedRng::new(3);
            let mut rt = runtime(FaultPlan::lossless(), RecoveryPolicy::FailFast, &topo);
            for _ in 0..3 {
                let la = plain.train_epoch(&data, 0.05, 8, &mut rng_a);
                let lb = lossy
                    .train_epoch_lossy(&data, 0.05, 8, &mut rng_b, &mut rt)
                    .expect("lossless epoch completes");
                assert_eq!(la, lb, "{update:?}");
            }
            for (x, _) in data.iter().take(8) {
                assert_eq!(
                    plain.forward(x).data(),
                    lossy.forward(x).data(),
                    "{update:?}"
                );
            }
            assert_eq!(plain.to_json(), lossy.to_json(), "{update:?}");
            // The fabric carried messages but touched none of them.
            assert!(rt.stats().sent > 0);
            assert_eq!(rt.stats().drops, 0);
            assert_eq!(rt.stats().sent, rt.stats().delivered);
        }
    }

    #[test]
    fn fail_fast_aborts_under_certain_loss() {
        let (mut net, data, topo) = small_setup(WeightUpdate::Independent, 7);
        let plan = FaultPlan::uniform(1, 1.0).unwrap();
        let mut rt = runtime(plan, RecoveryPolicy::FailFast, &topo);
        assert!(net.forward_lossy(&data[0].0, &mut rt).is_none());
        let acc = net.accuracy_lossy(&data, &mut rt);
        assert_eq!(acc, 0.0);
        assert!(rt.stats().aborted > 0);
    }

    #[test]
    fn degrade_policies_never_abort() {
        for mode in [DegradeMode::ZeroFill, DegradeMode::LastValueHold] {
            let (mut net, data, topo) = small_setup(WeightUpdate::Independent, 8);
            let plan = FaultPlan::uniform(2, 0.3).unwrap();
            let mut rt = runtime(plan, RecoveryPolicy::Degrade { mode }, &topo);
            for (x, _) in data.iter().take(10) {
                assert!(net.forward_lossy(x, &mut rt).is_some(), "{mode:?}");
            }
            assert!(rt.stats().degraded > 0, "{mode:?}");
        }
    }

    #[test]
    fn retransmission_survives_moderate_loss() {
        let (mut net, data, topo) = small_setup(WeightUpdate::Independent, 9);
        let plan = FaultPlan::uniform(3, 0.05).unwrap();
        let policy = RecoveryPolicy::Retransmit {
            max_retries: 4,
            timeout: SimDuration::from_millis(20),
            backoff: 2.0,
        };
        let mut rt = runtime(plan, policy, &topo);
        let completed = data
            .iter()
            .take(20)
            .filter(|(x, _)| net.forward_lossy(x, &mut rt).is_some())
            .count();
        // p(per-message failure) = 0.05^5: essentially everything makes it.
        assert!(completed >= 19, "completed={completed}");
        assert!(rt.stats().retries > 0);
        assert!(rt.stats().recovered > 0);
    }

    #[test]
    fn lossy_runs_are_reproducible() {
        let run = || {
            let (mut net, data, topo) = small_setup(WeightUpdate::Independent, 10);
            let plan = FaultPlan::uniform(4, 0.1).unwrap();
            let mut rt = runtime(
                plan,
                RecoveryPolicy::Degrade {
                    mode: DegradeMode::LastValueHold,
                },
                &topo,
            );
            let mut rng = SeedRng::new(5);
            let loss = net.train_epoch_lossy(&data, 0.05, 8, &mut rng, &mut rt);
            let acc = net.accuracy_lossy(&data, &mut rt);
            (loss, acc, *rt.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn degraded_training_still_learns_under_loss() {
        let (mut net, data, topo) = small_setup(WeightUpdate::Independent, 11);
        let plan = FaultPlan::uniform(5, 0.1).unwrap();
        let mut rt = runtime(
            plan,
            RecoveryPolicy::Degrade {
                mode: DegradeMode::ZeroFill,
            },
            &topo,
        );
        let mut rng = SeedRng::new(6);
        for _ in 0..12 {
            net.train_epoch_lossy(&data, 0.08, 8, &mut rng, &mut rt);
        }
        let acc = net.accuracy_lossy(&data, &mut rt);
        assert!(acc > 0.6, "acc={acc}");
    }

    #[test]
    fn outage_windows_black_out_a_node() {
        let (mut net, data, topo) = small_setup(WeightUpdate::Independent, 12);
        // Node 4 (center of the 3×3 grid) dark for the whole run.
        let plan = FaultPlan::lossless()
            .with_outage(
                NodeId::new(4),
                zeiot_core::time::SimTime::ZERO,
                zeiot_core::time::SimTime::from_secs(3600),
            )
            .unwrap();
        let mut rt = runtime(
            plan,
            RecoveryPolicy::Degrade {
                mode: DegradeMode::ZeroFill,
            },
            &topo,
        );
        let out = net.forward_lossy(&data[0].0, &mut rt);
        assert!(out.is_some());
        assert!(rt.stats().degraded > 0, "center node exchanges messages");
    }

    #[test]
    fn traced_forward_matches_untraced_and_emits_hop_spans() {
        use zeiot_core::time::SimTime;
        use zeiot_obs::trace::{TraceSampler, Tracer};
        let (mut a, data, topo) = small_setup(WeightUpdate::Independent, 14);
        let (mut b, _, _) = small_setup(WeightUpdate::Independent, 14);
        let mk = || {
            runtime(
                FaultPlan::uniform(7, 0.1).unwrap(),
                RecoveryPolicy::Degrade {
                    mode: DegradeMode::ZeroFill,
                },
                &topo,
            )
        };
        let (mut rt_a, mut rt_b) = (mk(), mk());
        let mut tracer = Tracer::new(TraceSampler::always());
        let root = tracer
            .begin(0, 0, "serve.request", SpanLayer::Request, SimTime::ZERO)
            .unwrap();
        let mut scope = tracer.scope(0, 0, root).unwrap();
        let plain = a.forward_lossy(&data[0].0, &mut rt_a).unwrap();
        let traced = b
            .forward_lossy_traced(&data[0].0, &mut rt_b, Some(&mut scope))
            .unwrap();
        // Probes observe, never perturb: outputs and fault counters are
        // byte-identical with and without tracing.
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
        // Every fabric transmission attempt is accounted to some hop span.
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
        let (mut net, data, topo) = small_setup(WeightUpdate::Independent, 13);
        let plan = FaultPlan::uniform(6, 0.2).unwrap();
        let mut rt = runtime(
            plan,
            RecoveryPolicy::Degrade {
                mode: DegradeMode::ZeroFill,
            },
            &topo,
        );
        let _ = net.forward_lossy(&data[0].0, &mut rt);
        let mut rec = Recorder::new();
        rt.record_to(&mut rec, Label::Global);
        assert_eq!(
            rec.counter_value("fault.sent", &Label::Global),
            rt.stats().sent
        );
        assert!(rec.counter_value("fault.degraded", &Label::Global) > 0);
    }
}
