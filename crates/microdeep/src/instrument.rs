//! Per-node traffic instrumentation for distributed propagation.
//!
//! [`TrafficInstrument`] records what each node's radio actually does
//! during one forward/backward pass — per-node transmit/receive message
//! and byte counters under `microdeep.*` names — into an observability
//! [`Recorder`]. It deliberately does **not** reuse
//! [`CostModel`](crate::cost::CostModel) or
//! [`TrafficLedger`](zeiot_net::traffic::TrafficLedger): it walks the
//! dependency edges and route hops itself, so the integration test that
//! checks measured counters against the static cost model compares two
//! independent implementations of the paper's counting rule.

use crate::assignment::Assignment;
use zeiot_core::id::NodeId;
use zeiot_net::routing::RoutingTable;
use zeiot_net::topology::Topology;
use zeiot_nn::topology::UnitGraph;
use zeiot_obs::{Label, Recorder};

/// Payload bytes of one propagated value (an `f32` activation or error
/// term).
pub const VALUE_BYTES: u64 = 4;

/// Which propagation direction a pass instruments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Producer layer → consumer layer (activations).
    Forward,
    /// Consumer layer → producer layer (error terms).
    Backward,
}

/// Records per-node radio activity of distributed CNN passes.
#[derive(Debug)]
pub struct TrafficInstrument {
    routes: RoutingTable,
}

impl TrafficInstrument {
    /// Builds the instrument (computes all-pairs routes once).
    pub fn new(topo: &Topology) -> Self {
        Self {
            routes: RoutingTable::shortest_paths(topo),
        }
    }

    /// Charges one message (plus its relays) from `src` to `dst` into the
    /// per-node counters. Local delivery is free; unreachable pairs
    /// charge nothing, matching the cost model.
    fn charge(&self, recorder: &mut Recorder, src: NodeId, dst: NodeId) {
        if src == dst {
            return;
        }
        let Some(path) = self.routes.path(src, dst) else {
            return;
        };
        for (&from, &to) in path.iter().zip(path.iter().skip(1)) {
            recorder.inc("microdeep.tx_messages", Label::node(from));
            recorder.add("microdeep.tx_bytes", Label::node(from), VALUE_BYTES);
            recorder.inc("microdeep.rx_messages", Label::node(to));
            recorder.add("microdeep.rx_bytes", Label::node(to), VALUE_BYTES);
        }
    }

    fn record_pass(
        &self,
        graph: &UnitGraph,
        assignment: &Assignment,
        direction: Direction,
        recorder: &mut Recorder,
    ) {
        for l in 1..graph.layer_count() {
            for u in 0..graph.units_in_layer(l) {
                let consumer = assignment.host_of(l, u);
                for &d in graph.dependencies(l, u) {
                    let producer = assignment.host_of(l - 1, d);
                    match direction {
                        Direction::Forward => self.charge(recorder, producer, consumer),
                        Direction::Backward => self.charge(recorder, consumer, producer),
                    }
                }
            }
        }
    }

    /// Records the radio activity of one forward pass: one message per
    /// cross-node dependency edge, activations flowing producer →
    /// consumer.
    pub fn record_forward(
        &self,
        graph: &UnitGraph,
        assignment: &Assignment,
        recorder: &mut Recorder,
    ) {
        self.record_pass(graph, assignment, Direction::Forward, recorder);
    }

    /// Records the radio activity of one backward pass: one error term
    /// per cross-node dependency edge, flowing consumer → producer.
    pub fn record_backward(
        &self,
        graph: &UnitGraph,
        assignment: &Assignment,
        recorder: &mut Recorder,
    ) {
        self.record_pass(graph, assignment, Direction::Backward, recorder);
    }

    /// Records one full training step (forward + backward).
    pub fn record_training_step(
        &self,
        graph: &UnitGraph,
        assignment: &Assignment,
        recorder: &mut Recorder,
    ) {
        self.record_forward(graph, assignment, recorder);
        self.record_backward(graph, assignment, recorder);
    }

    /// Records the distribution of per-node forward-pass costs (tx + rx,
    /// the paper's Fig. 10 bar heights) into the
    /// `microdeep.assignment_cost` histogram, and the peak into the
    /// `microdeep.assignment_peak_cost` gauge.
    pub fn record_assignment_cost(
        &self,
        graph: &UnitGraph,
        assignment: &Assignment,
        node_count: usize,
        recorder: &mut Recorder,
    ) {
        let mut scratch = Recorder::new();
        self.record_forward(graph, assignment, &mut scratch);
        let mut peak = 0u64;
        for i in 0..node_count {
            let node = Label::node(NodeId::new(i as u32));
            let cost = scratch.counter_value("microdeep.tx_messages", &node)
                + scratch.counter_value("microdeep.rx_messages", &node);
            peak = peak.max(cost);
            recorder.observe("microdeep.assignment_cost", Label::Global, cost as f64);
        }
        recorder.set_gauge("microdeep.assignment_peak_cost", Label::Global, peak as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CnnConfig;
    use crate::cost::CostModel;

    fn setup() -> (UnitGraph, Topology) {
        let config = CnnConfig::new(1, 8, 8, 2, 3, 2, 8, 2).unwrap();
        (
            config.unit_graph().unwrap(),
            Topology::grid(3, 3, 2.0, 3.0).unwrap(),
        )
    }

    #[test]
    fn forward_counters_match_the_static_cost_model() {
        let (graph, topo) = setup();
        let assignment = Assignment::balanced_correspondence(&graph, &topo);
        let instrument = TrafficInstrument::new(&topo);
        let mut rec = Recorder::new();
        instrument.record_forward(&graph, &assignment, &mut rec);

        let ledger = CostModel::new(&topo).forward_cost(&graph, &assignment);
        for i in 0..topo.len() {
            let node = NodeId::new(i as u32);
            assert_eq!(
                rec.counter_value("microdeep.tx_messages", &Label::node(node)),
                ledger.tx(node),
                "tx mismatch at {node}"
            );
            assert_eq!(
                rec.counter_value("microdeep.rx_messages", &Label::node(node)),
                ledger.rx(node),
                "rx mismatch at {node}"
            );
        }
    }

    #[test]
    fn bytes_are_messages_times_value_size() {
        let (graph, topo) = setup();
        let assignment = Assignment::centralized(&graph, &topo);
        let instrument = TrafficInstrument::new(&topo);
        let mut rec = Recorder::new();
        instrument.record_training_step(&graph, &assignment, &mut rec);
        for i in 0..topo.len() {
            let node = Label::node(NodeId::new(i as u32));
            assert_eq!(
                rec.counter_value("microdeep.tx_bytes", &node),
                rec.counter_value("microdeep.tx_messages", &node) * VALUE_BYTES
            );
        }
    }

    #[test]
    fn training_step_doubles_a_symmetric_pass() {
        // Total forward and backward traffic are equal (hop distances are
        // symmetric), so a full step totals twice the forward pass.
        let (graph, topo) = setup();
        let assignment = Assignment::balanced_correspondence(&graph, &topo);
        let instrument = TrafficInstrument::new(&topo);
        let mut fwd = Recorder::new();
        instrument.record_forward(&graph, &assignment, &mut fwd);
        let mut step = Recorder::new();
        instrument.record_training_step(&graph, &assignment, &mut step);
        let total = |r: &Recorder, name: &str| -> u64 {
            r.counters()
                .filter(|(n, _, _)| *n == name)
                .map(|(_, _, v)| v)
                .sum()
        };
        assert_eq!(
            total(&step, "microdeep.tx_messages"),
            2 * total(&fwd, "microdeep.tx_messages")
        );
    }

    #[test]
    fn assignment_cost_histogram_covers_every_node() {
        let (graph, topo) = setup();
        let assignment = Assignment::balanced_correspondence(&graph, &topo);
        let instrument = TrafficInstrument::new(&topo);
        let mut rec = Recorder::new();
        instrument.record_assignment_cost(&graph, &assignment, topo.len(), &mut rec);
        let hist = rec
            .histogram_ref("microdeep.assignment_cost", &Label::Global)
            .unwrap();
        assert_eq!(hist.len(), topo.len());
        let peak = rec
            .gauge("microdeep.assignment_peak_cost", &Label::Global)
            .unwrap();
        let ledger = CostModel::new(&topo).forward_cost(&graph, &assignment);
        assert_eq!(peak as u64, ledger.max_cost());
    }
}
