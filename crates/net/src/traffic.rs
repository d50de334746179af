//! Per-node communication-cost accounting.
//!
//! The paper's Fig. 10 plots "communication cost of sensor node" per node
//! and reports the *maximum* (360 for the optimal-parameter CNN, 210 for
//! the heuristic assignment). Cost is counted in message-units: one unit
//! per value a node transmits, with relays charged to every forwarding
//! node along the route — equalizing this maximum is MicroDeep's goal,
//! because the hottest node drains its harvested energy first.

use crate::routing::RoutingTable;
use serde::{Deserialize, Serialize};
use zeiot_core::id::NodeId;

/// Accumulates per-node transmit/receive/relay counts.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), zeiot_core::ConfigError> {
/// use zeiot_net::{Topology, RoutingTable, TrafficLedger};
/// use zeiot_core::id::NodeId;
///
/// let topo = Topology::grid(3, 1, 1.0, 1.1)?; // chain 0-1-2
/// let routes = RoutingTable::shortest_paths(&topo);
/// let mut ledger = TrafficLedger::new(topo.len());
/// ledger.send(&routes, NodeId::new(0), NodeId::new(2), 1);
/// // Node 0 transmits, node 1 relays (receives + transmits), node 2 receives.
/// assert_eq!(ledger.tx(NodeId::new(0)), 1);
/// assert_eq!(ledger.tx(NodeId::new(1)), 1);
/// assert_eq!(ledger.rx(NodeId::new(2)), 1);
/// assert_eq!(ledger.max_cost(), 2); // node 1: 1 rx + 1 tx
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficLedger {
    tx: Vec<u64>,
    rx: Vec<u64>,
}

impl TrafficLedger {
    /// Creates a ledger for `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one node");
        Self {
            tx: vec![0; n],
            rx: vec![0; n],
        }
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.tx.len()
    }

    /// Whether the ledger tracks no nodes (never true).
    pub fn is_empty(&self) -> bool {
        self.tx.is_empty()
    }

    /// Records a `units`-message transfer from `src` to `dst` along the
    /// shortest path, charging each hop's transmitter and receiver.
    /// Local delivery (`src == dst`) is free. Returns the number of hops
    /// used, or `None` when `dst` is unreachable (nothing is charged).
    pub fn send(
        &mut self,
        routes: &RoutingTable,
        src: NodeId,
        dst: NodeId,
        units: u64,
    ) -> Option<usize> {
        if src == dst {
            return Some(0);
        }
        let path = routes.path(src, dst)?;
        for hop in path.windows(2) {
            self.tx[hop[0].index()] += units;
            self.rx[hop[1].index()] += units;
        }
        Some(path.len() - 1)
    }

    /// Records a single-hop broadcast from `src` heard by `receivers`.
    pub fn broadcast(&mut self, src: NodeId, receivers: &[NodeId], units: u64) {
        self.tx[src.index()] += units;
        for r in receivers {
            self.rx[r.index()] += units;
        }
    }

    /// Units transmitted by a node (including relays).
    pub fn tx(&self, node: NodeId) -> u64 {
        self.tx[node.index()]
    }

    /// Units received by a node (including relayed traffic).
    pub fn rx(&self, node: NodeId) -> u64 {
        self.rx[node.index()]
    }

    /// Total communication cost of a node: transmissions + receptions
    /// (both cost energy on a sensor radio).
    pub fn cost(&self, node: NodeId) -> u64 {
        self.tx[node.index()] + self.rx[node.index()]
    }

    /// Per-node costs, indexed by node id — the Fig. 10 bar chart.
    pub fn costs(&self) -> Vec<u64> {
        (0..self.tx.len())
            .map(|i| self.tx[i] + self.rx[i])
            .collect()
    }

    /// The maximum per-node cost — the paper's headline metric.
    pub fn max_cost(&self) -> u64 {
        self.costs().into_iter().max().unwrap_or(0)
    }

    /// Total cost across all nodes.
    pub fn total_cost(&self) -> u64 {
        self.tx.iter().sum::<u64>() + self.rx.iter().sum::<u64>()
    }

    /// Resets all counters.
    pub fn clear(&mut self) {
        self.tx.fill(0);
        self.rx.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use zeiot_core::geometry::Point2;

    fn chain_routes(n: usize) -> (Topology, RoutingTable) {
        let positions = (0..n).map(|i| Point2::new(i as f64, 0.0)).collect();
        let topo = Topology::from_positions(positions, 1.1).unwrap();
        let routes = RoutingTable::shortest_paths(&topo);
        (topo, routes)
    }

    #[test]
    fn single_hop_charges_both_ends() {
        let (_, routes) = chain_routes(2);
        let mut ledger = TrafficLedger::new(2);
        let hops = ledger.send(&routes, NodeId::new(0), NodeId::new(1), 3);
        assert_eq!(hops, Some(1));
        assert_eq!(ledger.tx(NodeId::new(0)), 3);
        assert_eq!(ledger.rx(NodeId::new(1)), 3);
        assert_eq!(ledger.total_cost(), 6);
    }

    #[test]
    fn relay_nodes_pay_twice() {
        let (_, routes) = chain_routes(4);
        let mut ledger = TrafficLedger::new(4);
        ledger.send(&routes, NodeId::new(0), NodeId::new(3), 1);
        // Middle nodes 1 and 2 both rx and tx.
        assert_eq!(ledger.cost(NodeId::new(1)), 2);
        assert_eq!(ledger.cost(NodeId::new(2)), 2);
        assert_eq!(ledger.cost(NodeId::new(0)), 1);
        assert_eq!(ledger.cost(NodeId::new(3)), 1);
        assert_eq!(ledger.max_cost(), 2);
    }

    #[test]
    fn local_delivery_is_free() {
        let (_, routes) = chain_routes(3);
        let mut ledger = TrafficLedger::new(3);
        assert_eq!(
            ledger.send(&routes, NodeId::new(1), NodeId::new(1), 10),
            Some(0)
        );
        assert_eq!(ledger.total_cost(), 0);
    }

    #[test]
    fn unreachable_destination_charges_nothing() {
        let topo =
            Topology::from_positions(vec![Point2::new(0.0, 0.0), Point2::new(100.0, 0.0)], 1.0)
                .unwrap();
        let routes = RoutingTable::shortest_paths(&topo);
        let mut ledger = TrafficLedger::new(2);
        assert_eq!(
            ledger.send(&routes, NodeId::new(0), NodeId::new(1), 5),
            None
        );
        assert_eq!(ledger.total_cost(), 0);
    }

    #[test]
    fn broadcast_charges_all_receivers() {
        let mut ledger = TrafficLedger::new(4);
        ledger.broadcast(
            NodeId::new(0),
            &[NodeId::new(1), NodeId::new(2), NodeId::new(3)],
            2,
        );
        assert_eq!(ledger.tx(NodeId::new(0)), 2);
        for i in 1..4 {
            assert_eq!(ledger.rx(NodeId::new(i)), 2);
        }
    }

    #[test]
    fn costs_vector_matches_individual_queries() {
        let (_, routes) = chain_routes(4);
        let mut ledger = TrafficLedger::new(4);
        ledger.send(&routes, NodeId::new(0), NodeId::new(3), 1);
        ledger.send(&routes, NodeId::new(3), NodeId::new(1), 2);
        let costs = ledger.costs();
        for (i, &c) in costs.iter().enumerate() {
            assert_eq!(c, ledger.cost(NodeId::new(i as u32)));
        }
        assert_eq!(ledger.max_cost(), *costs.iter().max().unwrap());
    }

    #[test]
    fn clear_resets() {
        let (_, routes) = chain_routes(2);
        let mut ledger = TrafficLedger::new(2);
        ledger.send(&routes, NodeId::new(0), NodeId::new(1), 1);
        ledger.clear();
        assert_eq!(ledger.total_cost(), 0);
        assert_eq!(ledger.max_cost(), 0);
    }
}
