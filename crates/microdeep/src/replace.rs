//! Runtime re-placement: fault/brownout-driven "musical chairs".
//!
//! The planner solves placement once, offline; `zeiot-fault` outage
//! windows and `zeiot-energy` brownout traces then degrade it at
//! runtime while the assignment stands still. This module closes the
//! loop (paper §V; PAPERS.md "Musical Chair", "Dynamic Distribution of
//! Edge Intelligence at the Node Level"): a [`ReplacementEngine`] polls
//! node liveness from the fabric's dark-node set,
//! [`zeiot_fault::LinkFabric::down_set`] — the plan's
//! [`zeiot_fault::FaultPlan::down_set_at`] at the fabric's clock, kept
//! current as the clock moves, so a poll consumes no per-message fault
//! coordinates. Ids the topology does not have are ignored. On each
//! **epoch of change** (the down-set differs from the previous poll) the
//! engine runs a warm-started incremental local search from the
//! *current* assignment under a bounded migration budget.
//!
//! **An epoch costs its orphans, not the graph.** [`plan_incremental`]
//! scores only units on dark hosts. It reads an orphan's producers and
//! consumers off the CNN's geometry ([`UnitGraph::dependencies`],
//! [`UnitGraph::consumers`]), counts their hosts once, and scores each
//! candidate node as Σ edges × hops over those hosts, with the same
//! scorer the set-up placement's local search uses. No edge table is
//! built. The hop counts come from shortest paths over the mesh without
//! its dark nodes; the engine keeps them while the down-set stays the
//! same, since stranded units re-plan poll after poll over one down-set.
//!
//! **State handoff is radio traffic.** A migrated conv unit needs its
//! kernel replica on the destination node; dense units need their
//! weight rows. The engine ships that state as frames over the same
//! [`LossyRuntime`] fabric the activations ride — hop-weighted exactly
//! like [`crate::cost::CostModel`] counts messages — so migrations can
//! be dropped, retransmitted on the fabric's backoff schedule, or
//! abandoned under [`zeiot_fault::RecoveryPolicy`]. A failed handoff
//! leaves the unit stranded on its dark host; stranded units keep the
//! engine re-planning on every poll until they land or their host
//! recovers. Handoff state comes from the surviving *checkpoint peer*
//! nearest the destination (the gateway snapshots layer parameters to
//! layer peers; the dark node itself cannot transmit).
//!
//! **Determinism contract.** The down-set is read from a `BTreeMap` in
//! id order; orphans are visited deepest layer first, then by unit
//! index — under a tight budget the scarce migrations go to the units
//! whose loss silences the most downstream signal; candidate
//! selection uses the total order `(cost, node id)`; handoff frames are
//! ordinary fabric messages with pure-hash fates. A lossless plan has
//! an empty down-set at every instant, so the engine never fires: runs
//! are **byte-identical** to the non-replacing path (pinned by the
//! proptest below), and reports are byte-identical across thread
//! counts.

use crate::assignment::{improve, Assignment, EdgeHosts};
use crate::distributed::{ConvReplica, DistributedCnn};
use crate::lossy::{HopProbe, LossyRuntime};
use zeiot_core::id::NodeId;
use zeiot_fault::Delivery;
use zeiot_net::routing::RoutingTable;
use zeiot_net::topology::Topology;
use zeiot_nn::tensor::Tensor;
use zeiot_nn::topology::UnitGraph;
use zeiot_obs::trace::SpanScope;
use zeiot_obs::{Label, Recorder};

/// Weight scalars per state-handoff radio frame (a 16-byte payload of
/// i8 weights — the same frame geometry the quantized transport
/// assumes). Frames carry a CRC and a paired parity frame, so a
/// corrupted delivery is reconstructed at the receiver: corruption
/// shows up in the fabric's counters but cannot silently poison a
/// migrated kernel.
pub const SCALARS_PER_FRAME: usize = 16;

/// How an epoch of change re-solves the placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplaceStrategy {
    /// Warm start from the current assignment: only orphaned units
    /// (hosted on dark nodes) move, bounded by the migration budget.
    Incremental,
    /// Re-run the full balanced local search over the survivors and
    /// migrate every unit whose host changed. Ignores the budget — the
    /// baseline the incremental strategy is measured against.
    FullResolve,
}

/// Engine knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplaceConfig {
    /// Maximum unit migrations per epoch of change
    /// ([`ReplaceStrategy::Incremental`] only).
    pub migration_budget: usize,
    /// The re-solve strategy.
    pub strategy: ReplaceStrategy,
}

impl ReplaceConfig {
    /// Incremental re-placement under `migration_budget` moves per
    /// epoch.
    pub fn incremental(migration_budget: usize) -> Self {
        Self {
            migration_budget,
            strategy: ReplaceStrategy::Incremental,
        }
    }

    /// Full re-solve on every epoch of change (unbounded migrations).
    pub fn full_resolve() -> Self {
        Self {
            migration_budget: usize::MAX,
            strategy: ReplaceStrategy::FullResolve,
        }
    }
}

/// One planned unit move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// Unit-graph layer (≥ 1; inputs are pinned to their sensors).
    pub layer: usize,
    /// Unit index within the layer.
    pub unit: usize,
    /// The host the unit leaves.
    pub from: NodeId,
    /// The surviving host the unit lands on.
    pub to: NodeId,
}

/// What one planning pass decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplanOutcome {
    /// Planned moves, in `(layer, unit)` order.
    pub migrations: Vec<Migration>,
    /// Orphans left on dark hosts (no surviving capacity, or the
    /// migration budget ran out).
    pub stranded: usize,
    /// Input (sensor) units on dark nodes — their readings are gone
    /// until the node recovers; no migration can help.
    pub lost_inputs: usize,
    /// Whether the migration budget cut the pass short.
    pub budget_exhausted: bool,
}

/// Counters the engine accumulates across epochs; exported to the obs
/// recorder under `replace.*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplaceStats {
    /// Re-planning epochs: the down-set differed from the previous
    /// poll, or stranded units were left to retry.
    pub epochs: u64,
    /// Units successfully migrated (state landed, placement updated).
    pub migrations: u64,
    /// Orphans left stranded on dark hosts across all epochs.
    pub stranded: u64,
    /// Migrations abandoned because the state handoff failed on the
    /// fabric.
    pub failed_handoffs: u64,
    /// State-handoff frames delivered over the fabric.
    pub handoff_frames: u64,
    /// Hop-weighted handoff traffic (frames × route hops) — the
    /// [`crate::cost::CostModel`] currency, charged against the fabric.
    pub handoff_cost: u64,
    /// Epochs where the migration budget ran out before every orphan
    /// was re-homed.
    pub budget_exhausted: u64,
}

impl ReplaceStats {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &ReplaceStats) {
        self.epochs += other.epochs;
        self.migrations += other.migrations;
        self.stranded += other.stranded;
        self.failed_handoffs += other.failed_handoffs;
        self.handoff_frames += other.handoff_frames;
        self.handoff_cost += other.handoff_cost;
        self.budget_exhausted += other.budget_exhausted;
    }

    /// Writes the counters into `recorder` under `label` as
    /// `replace.epochs`, `replace.migrations`, `replace.stranded`,
    /// `replace.failed_handoffs`, `replace.handoff_frames`,
    /// `replace.handoff_cost`, `replace.budget_exhausted`.
    pub fn record_to(&self, recorder: &mut Recorder, label: Label) {
        recorder.add("replace.epochs", label.clone(), self.epochs);
        recorder.add("replace.migrations", label.clone(), self.migrations);
        recorder.add("replace.stranded", label.clone(), self.stranded);
        recorder.add(
            "replace.failed_handoffs",
            label.clone(),
            self.failed_handoffs,
        );
        recorder.add("replace.handoff_frames", label.clone(), self.handoff_frames);
        recorder.add("replace.handoff_cost", label.clone(), self.handoff_cost);
        recorder.add("replace.budget_exhausted", label, self.budget_exhausted);
    }
}

/// Plans a warm-started incremental re-placement: units hosted on
/// `down` nodes are re-homed, deepest layer first (then unit order),
/// to the surviving node with spare capacity (cap = ⌈units /
/// survivors⌉) that minimizes total hop distance to the unit's
/// producers and consumers over the degraded mesh; ties break on node
/// id. At most `budget` units move; the rest are stranded — so under a
/// tight budget the scarce migrations go to the units whose loss costs
/// the most (a dark dense unit silences a whole feature, a dark conv
/// unit one patch). Surviving units never move — the warm start is
/// what keeps migrations (and their handoff traffic) proportional to
/// the failure, not to the network.
///
/// Returns the repaired assignment and the plan. Pure: no fabric, no
/// model state — [`ReplacementEngine::poll`] turns the plan into
/// migrations with real state handoff. Ids in `down` that `topo` does
/// not have are ignored.
///
/// # Panics
///
/// Panics if every node is down.
pub fn plan_incremental(
    graph: &UnitGraph,
    topo: &Topology,
    assignment: &Assignment,
    down: &[NodeId],
    budget: usize,
) -> (Assignment, ReplanOutcome) {
    let routes = degraded_routes(topo, down);
    plan_incremental_over(graph, topo, &routes, assignment, down, budget)
}

/// Routes over `topo` without the nodes in `down`: dark nodes cannot
/// relay.
fn degraded_routes(topo: &Topology, down: &[NodeId]) -> RoutingTable {
    RoutingTable::shortest_paths(&topo.without_nodes(down))
}

/// [`plan_incremental`] over `routes`, which must be
/// [`degraded_routes`]`(topo, down)`.
///
/// # Panics
///
/// Panics if every node is down.
fn plan_incremental_over(
    graph: &UnitGraph,
    topo: &Topology,
    routes: &RoutingTable,
    assignment: &Assignment,
    down: &[NodeId],
    budget: usize,
) -> (Assignment, ReplanOutcome) {
    let surviving: Vec<NodeId> = topo.node_ids().filter(|n| !down.contains(n)).collect();
    // zeiot-audit: allow(p1) -- documented `# Panics` precondition guard
    assert!(!surviving.is_empty(), "all nodes down");
    let cap = graph.total_units().div_ceil(surviving.len());

    let mut repaired = assignment.clone();
    let mut load = vec![0usize; topo.len()];
    for l in 1..graph.layer_count() {
        for u in 0..graph.units_in_layer(l) {
            let h = assignment.host_of(l, u);
            if !down.contains(&h) {
                // zeiot-audit: allow(p1) -- hosts come from the assignment over this topology, so index() < topo.len()
                load[h.index()] += 1;
            }
        }
    }

    let mut migrations = Vec::new();
    let mut stranded = 0usize;
    let mut budget_exhausted = false;
    let mut edges = EdgeHosts::new(topo.len());
    for l in (1..graph.layer_count()).rev() {
        for u in 0..graph.units_in_layer(l) {
            let host = assignment.host_of(l, u);
            if !down.contains(&host) {
                continue;
            }
            if migrations.len() >= budget {
                budget_exhausted = true;
                stranded += 1;
                continue;
            }
            // Total hop distance to producers (and consumers, for units
            // feeding a next layer) — the balanced_correspondence cost,
            // evaluated against the progressively repaired assignment.
            edges.count(graph, &repaired, (l, u));
            let candidate = surviving
                .iter()
                .filter(|n| load[n.index()] < cap)
                .min_by_key(|n| (edges.cost(routes, **n), n.raw()))
                .copied();
            match candidate {
                Some(to) => {
                    repaired.set_host(l, u, to);
                    load[to.index()] += 1;
                    migrations.push(Migration {
                        layer: l,
                        unit: u,
                        from: host,
                        to,
                    });
                }
                None => stranded += 1,
            }
        }
    }

    let lost_inputs = (0..graph.units_in_layer(0))
        .filter(|&i| down.contains(&assignment.host_of(0, i)))
        .count();

    (
        repaired,
        ReplanOutcome {
            migrations,
            stranded,
            lost_inputs,
            budget_exhausted,
        },
    )
}

/// Plans a full re-solve over the survivors: orphans are re-homed as in
/// [`plan_incremental`] (unbounded), then the balanced local search
/// sweeps every spatial unit — not just orphans — so the whole
/// placement re-optimizes around the hole. Every changed host becomes a
/// migration; the move count scales with the network, which is exactly
/// what the incremental strategy's budget avoids.
///
/// # Panics
///
/// Panics if every node is down.
pub fn plan_full_resolve(
    graph: &UnitGraph,
    topo: &Topology,
    assignment: &Assignment,
    down: &[NodeId],
) -> (Assignment, ReplanOutcome) {
    let degraded = topo.without_nodes(down);
    let routes = RoutingTable::shortest_paths(&degraded);
    let (mut repaired, outcome) =
        plan_incremental_over(graph, topo, &routes, assignment, down, usize::MAX);
    let surviving = topo.node_ids().filter(|n| !down.contains(n)).count();
    let cap = graph.total_units().div_ceil(surviving);
    improve(&mut repaired, graph, &degraded, &routes, cap, down);

    // Migrations = every host that changed, in (layer, unit) order.
    let mut migrations = Vec::new();
    for l in 1..graph.layer_count() {
        for u in 0..graph.units_in_layer(l) {
            let from = assignment.host_of(l, u);
            let to = repaired.host_of(l, u);
            if from != to {
                migrations.push(Migration {
                    layer: l,
                    unit: u,
                    from,
                    to,
                });
            }
        }
    }
    (
        repaired,
        ReplanOutcome {
            migrations,
            stranded: outcome.stranded,
            lost_inputs: outcome.lost_inputs,
            budget_exhausted: false,
        },
    )
}

/// Scalars of state one migration carries: the conv kernel replica if
/// the destination lacks one (or the unit's own kernel under
/// [`crate::WeightUpdate::PerUnit`]), a dense unit's weight row plus
/// bias, nothing for a stateless pool unit.
fn migration_scalars(net: &DistributedCnn, m: &Migration) -> usize {
    let c = net.config;
    match m.layer {
        1 => {
            if net.per_unit.is_some() {
                c.in_channels() * c.kernel() * c.kernel() + 1
            } else if net.replicas.contains_key(&m.to) {
                0 // destination already holds this layer's replica
            } else {
                let oc = c.conv_channels();
                oc * c.in_channels() * c.kernel() * c.kernel() + oc
            }
        }
        2 => 0, // max pooling is stateless
        3 => c.feature_len() + 1,
        _ => c.hidden() + 1,
    }
}

/// The surviving checkpoint peer the migrated state ships from: the
/// live node hosting a unit of the same layer that is nearest the
/// destination (ties on id); falls back to the lowest-id survivor when
/// the layer has no surviving host.
fn state_source(
    net: &DistributedCnn,
    graph: &UnitGraph,
    rt: &LossyRuntime,
    m: &Migration,
    down: &[NodeId],
) -> NodeId {
    let peer = (0..graph.units_in_layer(m.layer))
        .map(|u| net.assignment.host_of(m.layer, u))
        .filter(|h| !down.contains(h) && *h != m.to)
        .min_by_key(|h| (rt.hops(*h, m.to), h.raw()));
    match peer {
        Some(p) => p,
        None => net
            .assignment
            .active_nodes()
            .into_iter()
            .find(|n| !down.contains(n) && *n != m.to)
            .unwrap_or(m.to),
    }
}

/// Applies one migration to the model: placement, conv host table, and
/// replica bookkeeping move coherently. `source` is the node whose
/// kernel state the destination adopts when it has no replica of its
/// own (under replica sharing the checkpoint peer's kernel *is* the
/// migrated state; replicas may have drifted under
/// [`crate::WeightUpdate::Independent`], which is the accuracy price of
/// a handoff from a peer instead of the dark node). This is the one place
/// a model's placement changes, so it keeps the forward's packed weights
/// current: a conv unit that moved to another replica re-points its own
/// lane there.
fn apply_one(net: &mut DistributedCnn, m: &Migration, source: NodeId) {
    net.assignment.set_host(m.layer, m.unit, m.to);
    if m.layer != 1 {
        return;
    }
    // zeiot-audit: allow(p1) -- migrations come from a plan over this model's unit graph, so unit < conv_unit_host.len()
    net.conv_unit_host[m.unit] = m.to;
    // A replica leaves with its host's last unit; it is the template of
    // last resort, when the model had no other.
    let mut left = None;
    if let Some(rep) = net.replicas.get_mut(&m.from) {
        rep.units -= 1;
        if rep.units == 0 {
            left = net.replicas.remove(&m.from);
        }
    }
    // Replica bookkeeping applies under every update mode: per-unit
    // kernels live in the unit-indexed table and move with their unit,
    // but the per-node replica map still tracks hosting counts.
    if let Some(rep) = net.replicas.get_mut(&m.to) {
        rep.units += 1;
    } else {
        let template = net
            .replicas
            .get(&source)
            .or_else(|| net.replicas.values().next())
            .or(left.as_ref())
            // zeiot-audit: allow(p1) -- a validated model keeps a replica on every conv host, so the unit's old host had one
            .expect("the unit's old host kept a replica");
        let fresh = ConvReplica {
            weights: template.weights.clone(),
            bias: template.bias.clone(),
            grad_weights: Tensor::zeros(template.weights.shape().to_vec()),
            grad_bias: Tensor::zeros(vec![template.bias.len()]),
            units: 1,
        };
        net.replicas.insert(m.to, fresh);
    }
    if let (None, Some(rep)) = (&net.per_unit, net.replicas.get(&m.to)) {
        net.work.repoint(&net.config, m.unit, rep);
    }
}

/// Applies a planned epoch to `net` **without a fabric** — the offline,
/// gateway-side repair. State is copied from the nearest surviving
/// checkpoint peer for free; the static-recovery baseline uses this.
pub fn apply_offline(
    net: &mut DistributedCnn,
    graph: &UnitGraph,
    migrations: &[Migration],
    down: &[NodeId],
) {
    // Source selection needs hop distances; an offline repair measures
    // them over the healthy mesh is unavailable — use layer-peer id
    // order instead (deterministic, and cost-free offline).
    for m in migrations {
        let source = (0..graph.units_in_layer(m.layer))
            .map(|u| net.assignment.host_of(m.layer, u))
            .find(|h| !down.contains(h) && *h != m.from)
            .unwrap_or(m.to);
        apply_one(net, m, source);
    }
    debug_assert_eq!(net.validate(), Ok(()));
}

/// The runtime re-placement controller: polls liveness, detects epochs
/// of change, plans under the configured strategy and budget, ships
/// state over the fabric, and keeps the model's placement, replica map
/// and host tables coherent.
#[derive(Debug, Clone)]
pub struct ReplacementEngine {
    config: ReplaceConfig,
    topo: Topology,
    /// The down-set at the previous poll (sorted); an epoch fires when
    /// the current down-set differs.
    last_down: Vec<NodeId>,
    /// The previous epoch left units stranded (budget cut, no surviving
    /// capacity, or failed handoffs) — retry them next poll even if the
    /// down-set is unchanged, so a per-epoch budget amortizes recovery
    /// instead of abandoning it.
    pending: bool,
    stats: ReplaceStats,
    /// The last incremental epoch's down-set and its degraded routes,
    /// kept while the down-set stays the same: stranded units re-plan
    /// epoch after epoch over one dark set.
    routes: Option<(Vec<NodeId>, RoutingTable)>,
}

impl ReplacementEngine {
    /// An engine for a deployment on `topo`, initially believing every
    /// node is up.
    pub fn new(config: ReplaceConfig, topo: &Topology) -> Self {
        Self {
            config,
            topo: topo.clone(),
            last_down: Vec::new(),
            pending: false,
            stats: ReplaceStats::default(),
            routes: None,
        }
    }

    /// The accumulated counters.
    pub fn stats(&self) -> &ReplaceStats {
        &self.stats
    }

    /// Writes the counters into `recorder` under `label`.
    pub fn record_to(&self, recorder: &mut Recorder, label: Label) {
        self.stats.record_to(recorder, label);
    }

    /// Polls liveness at the fabric's current clock and, on an epoch of
    /// change, re-places `net` over `rt`'s fabric. Returns the number
    /// of units migrated by this call (0 when the down-set is
    /// unchanged — the overwhelmingly common case, and always the case
    /// under a lossless plan, which is what keeps zero-fault runs
    /// byte-identical to the non-replacing path).
    ///
    /// Each migration's state handoff is shipped as
    /// [`SCALARS_PER_FRAME`]-scalar frames from the nearest surviving
    /// checkpoint peer through [`zeiot_fault::LinkFabric::transmit_over`],
    /// so the fabric's [`zeiot_fault::RecoveryPolicy`] governs retries;
    /// a frame that ultimately fails abandons the migration
    /// (`replace.failed_handoffs`) and strands the unit. Stranded units
    /// — budget-cut, capacity-starved or failed-handoff — are retried
    /// on the next poll even when the down-set is unchanged, so a
    /// per-epoch budget amortizes recovery across polls. When `scope`
    /// is given, every migration that actually transmitted leaves a
    /// `replace.migrate` hop span.
    pub fn poll(
        &mut self,
        net: &mut DistributedCnn,
        rt: &mut LossyRuntime,
        mut scope: Option<&mut SpanScope<'_>>,
    ) -> usize {
        let down: Vec<NodeId> = rt
            .fabric()
            .down_set()
            .iter()
            .copied()
            .filter(|n| n.index() < self.topo.len())
            .collect();
        if down == self.last_down && !self.pending {
            return 0;
        }
        self.stats.epochs += 1;
        if down.len() >= self.topo.len() {
            // Nothing survives; keep serving (degraded) and wait.
            self.last_down = down;
            return 0;
        }
        // zeiot-audit: allow(p1) -- DistributedCnn construction requires a config whose unit graph builds
        let graph = net.config.unit_graph().expect("validated config");
        let outcome = match self.config.strategy {
            ReplaceStrategy::Incremental => {
                let routes = match &mut self.routes {
                    Some((dark, routes)) if *dark == down => routes,
                    kept => {
                        &kept
                            .insert((down.clone(), degraded_routes(&self.topo, &down)))
                            .1
                    }
                };
                let budget = self.config.migration_budget;
                plan_incremental_over(&graph, &self.topo, routes, &net.assignment, &down, budget).1
            }
            ReplaceStrategy::FullResolve => {
                plan_full_resolve(&graph, &self.topo, &net.assignment, &down).1
            }
        };
        self.stats.stranded += outcome.stranded as u64;
        if outcome.budget_exhausted {
            self.stats.budget_exhausted += 1;
        }
        self.pending = outcome.stranded > 0;

        let mut applied = 0usize;
        for m in &outcome.migrations {
            let source = state_source(net, &graph, rt, m, &down);
            let scalars = migration_scalars(net, m);
            // One placement-control frame (the destination learns it now
            // owns the unit) plus the state payload — so even a
            // stateless or replica-sharing migration rides the lossy
            // fabric and can fail.
            let frames = 1 + scalars.div_ceil(SCALARS_PER_FRAME);
            let hops = rt.hops(source, m.to);
            let probe = scope.is_some().then(|| HopProbe::open(rt));
            let mut delivered = true;
            for _ in 0..frames {
                match rt.fabric_mut().transmit_over(source, m.to, hops) {
                    Delivery::Delivered { .. } => {
                        self.stats.handoff_frames += 1;
                        self.stats.handoff_cost += u64::from(hops);
                    }
                    Delivery::Failed { .. } => {
                        delivered = false;
                        break;
                    }
                }
            }
            if let (Some(s), Some(p)) = (scope.as_mut(), probe) {
                p.close(rt, s, "replace.migrate");
            }
            if delivered {
                apply_one(net, m, source);
                applied += 1;
                self.stats.migrations += 1;
            } else {
                self.stats.failed_handoffs += 1;
                self.stats.stranded += 1;
                self.pending = true;
            }
        }
        debug_assert_eq!(net.validate(), Ok(()));
        self.last_down = down;
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CnnConfig;
    use crate::distributed::WeightUpdate;
    use zeiot_core::rng::SeedRng;
    use zeiot_core::time::{SimDuration, SimTime};
    use zeiot_fault::{DegradeMode, FaultPlan, RecoveryPolicy};

    fn setup() -> (CnnConfig, Topology, Assignment) {
        let config = CnnConfig::new(1, 8, 8, 4, 3, 2, 16, 2).expect("valid config");
        let topo = Topology::grid(4, 4, 2.0, 3.0).expect("valid grid");
        let graph = config.unit_graph().expect("valid graph");
        let assignment = Assignment::balanced_correspondence(&graph, &topo);
        (config, topo, assignment)
    }

    fn runtime(plan: FaultPlan, policy: RecoveryPolicy, topo: &Topology) -> LossyRuntime {
        LossyRuntime::new(plan, policy, topo, SimDuration::from_millis(500))
    }

    #[test]
    fn empty_down_set_plans_nothing() {
        let (config, topo, assignment) = setup();
        let graph = config.unit_graph().expect("valid graph");
        let (repaired, outcome) = plan_incremental(&graph, &topo, &assignment, &[], 8);
        assert_eq!(repaired, assignment);
        assert!(outcome.migrations.is_empty());
        assert_eq!(outcome.stranded, 0);
        assert_eq!(outcome.lost_inputs, 0);
        assert!(!outcome.budget_exhausted);
    }

    #[test]
    fn incremental_plan_moves_only_orphans_within_budget() {
        let (config, topo, assignment) = setup();
        let graph = config.unit_graph().expect("valid graph");
        let down = vec![NodeId::new(5)];
        let orphans: usize = (1..graph.layer_count())
            .map(|l| {
                (0..graph.units_in_layer(l))
                    .filter(|&u| assignment.host_of(l, u) == down[0])
                    .count()
            })
            .sum();
        assert!(orphans > 2, "victim hosted {orphans} units — weak test");

        // Unbounded: every orphan moves, nothing else does.
        let (repaired, outcome) = plan_incremental(&graph, &topo, &assignment, &down, usize::MAX);
        assert_eq!(outcome.migrations.len(), orphans);
        assert_eq!(outcome.stranded, 0);
        for l in 1..graph.layer_count() {
            for u in 0..graph.units_in_layer(l) {
                if assignment.host_of(l, u) != down[0] {
                    assert_eq!(repaired.host_of(l, u), assignment.host_of(l, u));
                } else {
                    assert_ne!(repaired.host_of(l, u), down[0]);
                }
            }
        }

        // Bounded: exactly `budget` move, the rest are stranded.
        let budget = orphans / 2;
        let (_, bounded) = plan_incremental(&graph, &topo, &assignment, &down, budget);
        assert_eq!(bounded.migrations.len(), budget);
        assert_eq!(bounded.stranded, orphans - budget);
        assert!(bounded.budget_exhausted);
    }

    #[test]
    fn full_resolve_respects_cap_and_reports_every_move() {
        let (config, topo, assignment) = setup();
        let graph = config.unit_graph().expect("valid graph");
        let down = vec![NodeId::new(0), NodeId::new(5)];
        let (repaired, outcome) = plan_full_resolve(&graph, &topo, &assignment, &down);
        let cap = graph.total_units().div_ceil(topo.len() - down.len());
        let loads = repaired.units_per_node();
        for d in &down {
            assert_eq!(loads[d.index()], 0);
        }
        for n in topo.node_ids() {
            assert!(loads[n.index()] <= cap, "node {n} over cap");
        }
        // Each reported migration matches the assignment diff exactly.
        let mut diff = 0usize;
        for l in 1..graph.layer_count() {
            for u in 0..graph.units_in_layer(l) {
                if assignment.host_of(l, u) != repaired.host_of(l, u) {
                    diff += 1;
                }
            }
        }
        assert_eq!(outcome.migrations.len(), diff);
        // A full re-solve moves at least the orphans.
        let (_, inc) = plan_incremental(&graph, &topo, &assignment, &down, usize::MAX);
        assert!(outcome.migrations.len() >= inc.migrations.len());
    }

    #[test]
    #[should_panic]
    fn total_failure_panics() {
        let (config, topo, assignment) = setup();
        let graph = config.unit_graph().expect("valid graph");
        let all: Vec<NodeId> = topo.node_ids().collect();
        let _ = plan_incremental(&graph, &topo, &assignment, &all, usize::MAX);
    }

    #[test]
    fn engine_migrates_on_an_epoch_and_keeps_the_model_valid() {
        let (config, topo, assignment) = setup();
        let mut rng = SeedRng::new(3);
        let mut net = DistributedCnn::new(config, assignment, WeightUpdate::Independent, &mut rng);
        let plan = FaultPlan::lossless()
            .with_outage(
                NodeId::new(5),
                SimTime::from_secs(1),
                SimTime::from_secs(100),
            )
            .expect("valid window");
        let mut rt = runtime(
            plan,
            RecoveryPolicy::Degrade {
                mode: DegradeMode::ZeroFill,
            },
            &topo,
        );
        let mut engine = ReplacementEngine::new(ReplaceConfig::incremental(64), &topo);

        // Before the window opens: no epoch, no change.
        assert_eq!(engine.poll(&mut net, &mut rt, None), 0);
        assert_eq!(engine.stats().epochs, 0);

        // Walk the clock into the outage window.
        for _ in 0..3 {
            rt.advance_pass();
        }
        let moved = engine.poll(&mut net, &mut rt, None);
        assert!(moved > 0, "outage must trigger migrations");
        assert_eq!(engine.stats().epochs, 1);
        assert_eq!(engine.stats().migrations, moved as u64);
        assert!(engine.stats().handoff_frames > 0);
        assert!(engine.stats().handoff_cost >= engine.stats().handoff_frames);
        assert_eq!(net.validate(), Ok(()));
        let graph = net.config().unit_graph().expect("valid graph");
        for l in 1..graph.layer_count() {
            for u in 0..graph.units_in_layer(l) {
                assert_ne!(net.assignment().host_of(l, u), NodeId::new(5));
            }
        }
        // The model still answers through the degraded fabric.
        let input = Tensor::uniform(vec![1, 8, 8], 1.0, &mut rng);
        assert!(net.forward_lossy(&input, &mut rt).is_some());

        // Same down-set next poll: no second epoch.
        assert_eq!(engine.poll(&mut net, &mut rt, None), 0);
        assert_eq!(engine.stats().epochs, 1);
    }

    #[test]
    fn engine_epochs_fire_on_recovery_too() {
        let (config, topo, assignment) = setup();
        let mut rng = SeedRng::new(4);
        let mut net = DistributedCnn::new(config, assignment, WeightUpdate::Independent, &mut rng);
        let plan = FaultPlan::lossless()
            .with_outage(NodeId::new(5), SimTime::ZERO, SimTime::from_secs(1))
            .expect("valid window");
        let mut rt = runtime(
            plan,
            RecoveryPolicy::Degrade {
                mode: DegradeMode::ZeroFill,
            },
            &topo,
        );
        let mut engine = ReplacementEngine::new(ReplaceConfig::incremental(64), &topo);
        let moved = engine.poll(&mut net, &mut rt, None);
        assert!(moved > 0);
        for _ in 0..4 {
            rt.advance_pass();
        }
        // Window closed: the down-set change is an epoch, but nothing is
        // orphaned (musical chairs has hysteresis — units stay seated).
        assert_eq!(engine.poll(&mut net, &mut rt, None), 0);
        assert_eq!(engine.stats().epochs, 2);
    }

    /// A model on a 2×2 grid and a lossless fabric whose only faults are
    /// whole-run outages of `down`.
    fn two_by_two_with_outages(down: &[u32]) -> (DistributedCnn, LossyRuntime, Topology) {
        let config = CnnConfig::new(1, 8, 8, 2, 3, 2, 8, 2).expect("valid config");
        let topo = Topology::grid(2, 2, 2.0, 3.0).expect("valid grid");
        let graph = config.unit_graph().expect("valid graph");
        let assignment = Assignment::balanced_correspondence(&graph, &topo);
        let mut rng = SeedRng::new(11);
        let net = DistributedCnn::new(config, assignment, WeightUpdate::Independent, &mut rng);
        let mut plan = FaultPlan::lossless();
        for &raw in down {
            plan = plan
                .with_outage(NodeId::new(raw), SimTime::ZERO, SimTime::from_secs(100))
                .expect("valid window");
        }
        let policy = RecoveryPolicy::Degrade {
            mode: DegradeMode::ZeroFill,
        };
        let rt = runtime(plan, policy, &topo);
        (net, rt, topo)
    }

    #[test]
    fn outages_on_ids_outside_the_topology_are_ignored() {
        let (mut net, mut rt, topo) = two_by_two_with_outages(&[1, 99]);
        let mut engine = ReplacementEngine::new(ReplaceConfig::incremental(usize::MAX), &topo);
        assert!(engine.poll(&mut net, &mut rt, None) > 0);
        assert_eq!(engine.stats().stranded, 0);
        assert_eq!(net.validate(), Ok(()));
        let graph = net.config().unit_graph().expect("valid graph");
        for l in 1..graph.layer_count() {
            for u in 0..graph.units_in_layer(l) {
                assert_ne!(net.assignment().host_of(l, u), NodeId::new(1));
            }
        }
    }

    #[test]
    fn an_off_topology_outage_does_not_hide_the_last_survivor() {
        // Nodes 0–2 and the unknown node 99 are dark: node 3 survives
        // and takes every unit.
        let (mut net, mut rt, topo) = two_by_two_with_outages(&[0, 1, 2, 99]);
        let mut engine = ReplacementEngine::new(ReplaceConfig::incremental(usize::MAX), &topo);
        assert!(engine.poll(&mut net, &mut rt, None) > 0);
        assert_eq!(engine.stats().stranded, 0);
        assert_eq!(net.validate(), Ok(()));
        let graph = net.config().unit_graph().expect("valid graph");
        for l in 1..graph.layer_count() {
            for u in 0..graph.units_in_layer(l) {
                assert_eq!(net.assignment().host_of(l, u), NodeId::new(3));
            }
        }
    }

    #[test]
    fn failed_handoffs_strand_units_under_fail_fast() {
        let (config, topo, assignment) = setup();
        let mut rng = SeedRng::new(5);
        let mut net = DistributedCnn::new(config, assignment, WeightUpdate::Independent, &mut rng);
        // Outage plus certain link loss: every handoff frame dies.
        let plan = FaultPlan::uniform(9, 1.0)
            .expect("valid rate")
            .with_outage(NodeId::new(5), SimTime::ZERO, SimTime::from_secs(100))
            .expect("valid window");
        let mut rt = runtime(plan, RecoveryPolicy::FailFast, &topo);
        let mut engine = ReplacementEngine::new(ReplaceConfig::incremental(64), &topo);
        let moved = engine.poll(&mut net, &mut rt, None);
        assert_eq!(moved, 0, "no handoff can complete");
        assert!(engine.stats().failed_handoffs > 0);
        assert_eq!(engine.stats().migrations, 0);
        // The model is still internally coherent (units stranded on the
        // dark node, replicas untouched).
        assert_eq!(net.validate(), Ok(()));
    }

    #[test]
    fn engine_is_reproducible() {
        let run = || {
            let (config, topo, assignment) = setup();
            let mut rng = SeedRng::new(6);
            let mut net =
                DistributedCnn::new(config, assignment, WeightUpdate::Independent, &mut rng);
            let plan = FaultPlan::uniform(2, 0.05)
                .expect("valid rate")
                .with_outage(
                    NodeId::new(9),
                    SimTime::from_secs(1),
                    SimTime::from_secs(50),
                )
                .expect("valid window");
            let mut rt = runtime(
                plan,
                RecoveryPolicy::Degrade {
                    mode: DegradeMode::LastValueHold,
                },
                &topo,
            );
            let mut engine = ReplacementEngine::new(ReplaceConfig::incremental(8), &topo);
            let input = Tensor::uniform(vec![1, 8, 8], 1.0, &mut rng);
            let mut out = Vec::new();
            for _ in 0..8 {
                engine.poll(&mut net, &mut rt, None);
                if let Some(logits) = net.forward_lossy(&input, &mut rt) {
                    out.extend_from_slice(logits.data());
                }
                rt.advance_pass();
            }
            (out, *engine.stats(), *rt.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_merge_and_reach_the_recorder() {
        let mut a = ReplaceStats {
            epochs: 1,
            migrations: 3,
            stranded: 1,
            failed_handoffs: 1,
            handoff_frames: 12,
            handoff_cost: 30,
            budget_exhausted: 1,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.migrations, 6);
        assert_eq!(a.handoff_cost, 60);
        let mut rec = Recorder::new();
        a.record_to(&mut rec, Label::Global);
        assert_eq!(rec.counter_value("replace.migrations", &Label::Global), 6);
        assert_eq!(rec.counter_value("replace.epochs", &Label::Global), 2);
    }

    #[test]
    fn migrate_spans_are_emitted_and_do_not_perturb() {
        use zeiot_obs::trace::{ClockDomain, SpanLayer, TraceSampler, Tracer};
        let mk = || {
            let (config, topo, assignment) = setup();
            let mut rng = SeedRng::new(7);
            let net = DistributedCnn::new(config, assignment, WeightUpdate::Independent, &mut rng);
            let plan = FaultPlan::lossless()
                .with_outage(NodeId::new(5), SimTime::ZERO, SimTime::from_secs(100))
                .expect("valid window");
            let rt = runtime(
                plan,
                RecoveryPolicy::Degrade {
                    mode: DegradeMode::ZeroFill,
                },
                &topo,
            );
            let engine = ReplacementEngine::new(ReplaceConfig::incremental(64), &topo);
            (net, rt, engine)
        };
        let (mut net_a, mut rt_a, mut eng_a) = mk();
        let (mut net_b, mut rt_b, mut eng_b) = mk();
        let mut tracer = Tracer::new(TraceSampler::always());
        let root = tracer
            .begin(0, 0, "serve.request", SpanLayer::Request, SimTime::ZERO)
            .expect("sampled");
        let mut scope = tracer.scope(0, 0, root).expect("scope");
        let moved_a = eng_a.poll(&mut net_a, &mut rt_a, None);
        let moved_b = eng_b.poll(&mut net_b, &mut rt_b, Some(&mut scope));
        assert_eq!(moved_a, moved_b);
        assert_eq!(eng_a.stats(), eng_b.stats());
        assert_eq!(rt_a.stats(), rt_b.stats());
        assert_eq!(net_a.assignment(), net_b.assignment());
        tracer.finish(0, 0, SimTime::ZERO);
        let trace = tracer.take_finished().remove(0);
        let migrate_spans: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == "replace.migrate")
            .collect();
        assert!(!migrate_spans.is_empty(), "handoffs must leave spans");
        assert!(migrate_spans
            .iter()
            .all(|s| s.layer == SpanLayer::Hop && s.clock == ClockDomain::Fabric));
    }

    #[test]
    fn per_unit_models_migrate_without_replica_bookkeeping() {
        let (config, topo, assignment) = setup();
        let mut rng = SeedRng::new(8);
        let mut net = DistributedCnn::new(config, assignment, WeightUpdate::PerUnit, &mut rng);
        let plan = FaultPlan::lossless()
            .with_outage(NodeId::new(5), SimTime::ZERO, SimTime::from_secs(100))
            .expect("valid window");
        let mut rt = runtime(
            plan,
            RecoveryPolicy::Degrade {
                mode: DegradeMode::ZeroFill,
            },
            &topo,
        );
        let mut engine = ReplacementEngine::new(ReplaceConfig::incremental(64), &topo);
        let moved = engine.poll(&mut net, &mut rt, None);
        assert!(moved > 0);
        assert_eq!(net.validate(), Ok(()));
        // Per-unit kernels travel with their units: the function over a
        // lossless fabric is placement-invariant, so the migrated model
        // computes the same logits as an unmigrated clone.
        let mut rng2 = SeedRng::new(8);
        let (config2, topo2, assignment2) = setup();
        let mut baseline =
            DistributedCnn::new(config2, assignment2, WeightUpdate::PerUnit, &mut rng2);
        let mut clean_rt = runtime(FaultPlan::lossless(), RecoveryPolicy::FailFast, &topo2);
        let _ = topo;
        let input = Tensor::uniform(vec![1, 8, 8], 1.0, &mut rng);
        let migrated = net
            .forward_lossy(&input, &mut clean_rt)
            .expect("lossless never aborts");
        assert_eq!(migrated.data(), baseline.forward(&input).data());
    }

    mod proptests {
        use super::*;
        use crate::assignment::reference::{inverted_dependencies, per_edge_hop_cost};
        use proptest::prelude::*;

        /// The planner as it scored orphans before [`EdgeHosts`]: every
        /// candidate walks all of the orphan's producers and consumers
        /// through [`per_edge_hop_cost`] over a consumer table inverted
        /// from the dependency lists. Kept as the reference
        /// `plan_incremental` must equal.
        fn plan_incremental_reference(
            graph: &UnitGraph,
            topo: &Topology,
            assignment: &Assignment,
            down: &[NodeId],
            budget: usize,
        ) -> (Assignment, ReplanOutcome) {
            let surviving: Vec<NodeId> = topo.node_ids().filter(|n| !down.contains(n)).collect();
            assert!(!surviving.is_empty(), "all nodes down");
            let degraded = topo.without_nodes(down);
            let routes = RoutingTable::shortest_paths(&degraded);
            let cap = graph.total_units().div_ceil(surviving.len());
            let consumers = inverted_dependencies(graph);

            let mut repaired = assignment.clone();
            let mut load = vec![0usize; topo.len()];
            for l in 1..graph.layer_count() {
                for u in 0..graph.units_in_layer(l) {
                    let h = assignment.host_of(l, u);
                    if !down.contains(&h) {
                        load[h.index()] += 1;
                    }
                }
            }
            let mut migrations = Vec::new();
            let mut stranded = 0usize;
            let mut budget_exhausted = false;
            for l in (1..graph.layer_count()).rev() {
                for u in 0..graph.units_in_layer(l) {
                    let host = assignment.host_of(l, u);
                    if !down.contains(&host) {
                        continue;
                    }
                    if migrations.len() >= budget {
                        budget_exhausted = true;
                        stranded += 1;
                        continue;
                    }
                    let candidate = surviving
                        .iter()
                        .filter(|n| load[n.index()] < cap)
                        .min_by_key(|n| {
                            (
                                per_edge_hop_cost(
                                    graph,
                                    &routes,
                                    &consumers,
                                    &repaired,
                                    (l, u),
                                    **n,
                                ),
                                n.raw(),
                            )
                        })
                        .copied();
                    match candidate {
                        Some(to) => {
                            repaired.set_host(l, u, to);
                            load[to.index()] += 1;
                            migrations.push(Migration {
                                layer: l,
                                unit: u,
                                from: host,
                                to,
                            });
                        }
                        None => stranded += 1,
                    }
                }
            }
            let lost_inputs = (0..graph.units_in_layer(0))
                .filter(|&i| down.contains(&assignment.host_of(0, i)))
                .count();
            (
                repaired,
                ReplanOutcome {
                    migrations,
                    stranded,
                    lost_inputs,
                    budget_exhausted,
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Scoring an orphan by its counted producer and consumer
            /// hosts plans exactly what per-edge scoring over the
            /// whole-graph consumer table planned: random small configs
            /// and grids, balanced and centralized placements, 0 to n−1
            /// dark nodes, budgets 0, 1, 8 and unbounded.
            #[test]
            fn plan_incremental_equals_per_edge_scoring(
                shape in (1usize..3, 1usize..4, 1usize..4, 1usize..3),
                pooled in (1usize..4, 1usize..4, 1usize..9, 2usize..4),
                grid in (1usize..5, 1usize..5),
                centralized in proptest::bool::ANY,
                down_seed in 0u64..u64::MAX,
                down_count in 0usize..16,
                budget_idx in 0usize..4,
            ) {
                let ((ic, oc, k, pool), (ph, pw, hidden, classes)) = (shape, pooled);
                // The input is sized so the pool window divides the conv
                // output.
                let config =
                    CnnConfig::new(ic, pool * ph + k - 1, pool * pw + k - 1, oc, k, pool, hidden, classes)
                        .expect("valid config");
                let graph = config.unit_graph().expect("valid graph");
                let topo = Topology::grid(grid.0, grid.1, 2.0, 3.0).expect("valid grid");
                let assignment = if centralized {
                    Assignment::centralized(&graph, &topo)
                } else {
                    Assignment::balanced_correspondence(&graph, &topo)
                };
                let mut nodes: Vec<NodeId> = topo.node_ids().collect();
                SeedRng::new(down_seed).shuffle(&mut nodes);
                let down = &nodes[..down_count % topo.len()];
                let budget = [0, 1, 8, usize::MAX][budget_idx];
                prop_assert_eq!(
                    plan_incremental(&graph, &topo, &assignment, down, budget),
                    plan_incremental_reference(&graph, &topo, &assignment, down, budget)
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Satellite contract: re-placement under an empty fault
            /// plan is a no-op — assignment and logits are exactly the
            /// baseline's at every pass.
            #[test]
            fn lossless_replacement_is_a_no_op(seed in 0u64..1_000, passes in 1usize..6) {
                let config = CnnConfig::new(1, 8, 8, 2, 3, 2, 8, 2).expect("valid config");
                let topo = Topology::grid(3, 3, 2.0, 3.0).expect("valid grid");
                let graph = config.unit_graph().expect("valid graph");
                let assignment = Assignment::balanced_correspondence(&graph, &topo);
                let mut rng = SeedRng::new(seed);
                let mut net = DistributedCnn::new(
                    config,
                    assignment.clone(),
                    WeightUpdate::Independent,
                    &mut rng,
                );
                let mut baseline = net.clone();
                let mut rt = LossyRuntime::new(
                    FaultPlan::lossless(),
                    RecoveryPolicy::FailFast,
                    &topo,
                    SimDuration::from_millis(500),
                );
                let mut engine =
                    ReplacementEngine::new(ReplaceConfig::incremental(8), &topo);
                let input = Tensor::uniform(vec![1, 8, 8], 1.0, &mut rng);
                for _ in 0..passes {
                    let moved = engine.poll(&mut net, &mut rt, None);
                    prop_assert_eq!(moved, 0);
                    let lossy = net
                        .forward_lossy(&input, &mut rt)
                        .expect("lossless never aborts");
                    prop_assert_eq!(lossy.data(), baseline.forward(&input).data());
                    rt.advance_pass();
                }
                prop_assert_eq!(net.assignment(), &assignment);
                prop_assert_eq!(engine.stats(), &ReplaceStats::default());
            }
        }
    }
}
