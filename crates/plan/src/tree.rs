//! The collection tree: who forwards to whom.
//!
//! A BFS tree rooted at the sink gives shortest-hop converge-cast routes.
//! Each node's *forwarding load* — its own report plus everything its
//! subtree generates — determines how many transmission slots it needs
//! per collection round, and therefore which node is the bottleneck.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use zeiot_core::error::{ConfigError, Result};
use zeiot_core::id::NodeId;
use zeiot_net::Topology;

/// A rooted collection tree over a topology.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), zeiot_core::ConfigError> {
/// use zeiot_plan::tree::CollectionTree;
/// use zeiot_net::Topology;
/// use zeiot_core::id::NodeId;
///
/// let topo = Topology::grid(3, 3, 1.0, 1.1)?;
/// let tree = CollectionTree::build(&topo, NodeId::new(0))?;
/// assert_eq!(tree.subtree_size(NodeId::new(0)), 9); // root carries all
/// assert!(tree.parent(NodeId::new(8)).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectionTree {
    sink: NodeId,
    /// Parent of each node (`None` for the sink and unreachable nodes).
    parent: Vec<Option<NodeId>>,
    /// Children lists.
    children: Vec<Vec<NodeId>>,
    /// Hop depth from the sink (`usize::MAX` = unreachable).
    depth: Vec<usize>,
    /// Nodes in the node's subtree including itself (0 = unreachable).
    subtree: Vec<usize>,
}

impl CollectionTree {
    /// Builds a BFS tree rooted at `sink`.
    ///
    /// # Errors
    ///
    /// Returns an error if the sink id is out of range.
    pub fn build(topo: &Topology, sink: NodeId) -> Result<Self> {
        if sink.index() >= topo.len() {
            return Err(ConfigError::new("sink", "out of range"));
        }
        let n = topo.len();
        let mut parent = vec![None; n];
        let mut children = vec![Vec::new(); n];
        let mut depth = vec![usize::MAX; n];
        depth[sink.index()] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(sink);
        while let Some(u) = queue.pop_front() {
            for &v in topo.neighbors(u) {
                if depth[v.index()] == usize::MAX {
                    depth[v.index()] = depth[u.index()] + 1;
                    parent[v.index()] = Some(u);
                    children[u.index()].push(v);
                    queue.push_back(v);
                }
            }
        }
        let mut tree = Self {
            sink,
            parent,
            children,
            depth,
            subtree: vec![0; n],
        };
        tree.recompute_subtrees();
        Ok(tree)
    }

    fn recompute_subtrees(&mut self) {
        let n = self.parent.len();
        self.subtree = vec![0; n];
        // Process nodes in decreasing depth so children are done first.
        let mut order: Vec<usize> = (0..n).filter(|&i| self.depth[i] != usize::MAX).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.depth[i]));
        for i in order {
            self.subtree[i] = 1 + self.children[i]
                .iter()
                .map(|c| self.subtree[c.index()])
                .sum::<usize>();
        }
    }

    /// The sink node.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// Parent of `node` (`None` for the sink and unreachable nodes).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node.index()]
    }

    /// Children of `node`.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children[node.index()]
    }

    /// Hop depth of `node` from the sink, `None` when unreachable.
    pub fn depth(&self, node: NodeId) -> Option<usize> {
        let d = self.depth[node.index()];
        (d != usize::MAX).then_some(d)
    }

    /// Subtree size (reports per round the node must transmit upward,
    /// including its own); 0 when unreachable.
    pub fn subtree_size(&self, node: NodeId) -> usize {
        self.subtree[node.index()]
    }

    /// Nodes that cannot reach the sink.
    pub fn unreachable(&self) -> Vec<NodeId> {
        (0..self.parent.len())
            .filter(|&i| self.depth[i] == usize::MAX)
            .map(|i| NodeId::new(i as u32))
            .collect()
    }

    /// The tree height (maximum depth of a reachable node).
    pub fn height(&self) -> usize {
        self.depth
            .iter()
            .filter(|&&d| d != usize::MAX)
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Total number of hop-transmissions per full collection round
    /// (every node's report travels `depth` hops).
    pub fn transmissions_per_round(&self) -> usize {
        self.depth
            .iter()
            .filter(|&&d| d != usize::MAX)
            .sum::<usize>()
    }

    /// The path from `node` up to the sink, inclusive; `None` when
    /// unreachable.
    pub fn path_to_sink(&self, node: NodeId) -> Option<Vec<NodeId>> {
        self.depth(node)?;
        let mut path = vec![node];
        let mut cur = node;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        Some(path)
    }

    /// Re-parents nodes after `failed` nodes die: each orphaned node
    /// (and transitively orphaned descendants) is re-attached via a
    /// fresh BFS over the degraded topology. Returns the new tree; nodes
    /// with no surviving route to the sink end up unreachable.
    ///
    /// # Errors
    ///
    /// Returns an error if the sink itself failed.
    pub fn repair(&self, topo: &Topology, failed: &[NodeId]) -> Result<Self> {
        if failed.contains(&self.sink) {
            return Err(ConfigError::new("failed", "sink node failed"));
        }
        let degraded = topo.without_nodes(failed);
        Self::build(&degraded, self.sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeiot_core::geometry::Point2;

    fn grid() -> Topology {
        Topology::grid(4, 4, 1.0, 1.1).unwrap()
    }

    #[test]
    fn root_properties() {
        let tree = CollectionTree::build(&grid(), NodeId::new(0)).unwrap();
        assert_eq!(tree.sink(), NodeId::new(0));
        assert_eq!(tree.parent(NodeId::new(0)), None);
        assert_eq!(tree.depth(NodeId::new(0)), Some(0));
        assert_eq!(tree.subtree_size(NodeId::new(0)), 16);
        assert!(tree.unreachable().is_empty());
    }

    #[test]
    fn depths_match_hop_distance() {
        let topo = grid();
        let tree = CollectionTree::build(&topo, NodeId::new(0)).unwrap();
        let routes = zeiot_net::routing::RoutingTable::shortest_paths(&topo);
        for n in topo.node_ids() {
            assert_eq!(tree.depth(n), routes.hop_distance(NodeId::new(0), n));
        }
        assert_eq!(tree.height(), 6); // corner-to-corner in a 4×4 orthogonal grid
    }

    #[test]
    fn subtree_sizes_are_consistent() {
        let tree = CollectionTree::build(&grid(), NodeId::new(5)).unwrap();
        // Children's subtrees plus one equals the node's subtree.
        for i in 0..16u32 {
            let node = NodeId::new(i);
            let expect: usize = 1 + tree
                .children(node)
                .iter()
                .map(|c| tree.subtree_size(*c))
                .sum::<usize>();
            assert_eq!(tree.subtree_size(node), expect);
        }
    }

    #[test]
    fn parent_child_relationships_are_mutual() {
        let tree = CollectionTree::build(&grid(), NodeId::new(3)).unwrap();
        for i in 0..16u32 {
            let node = NodeId::new(i);
            if let Some(p) = tree.parent(node) {
                assert!(tree.children(p).contains(&node));
            }
            for &c in tree.children(node) {
                assert_eq!(tree.parent(c), Some(node));
            }
        }
    }

    #[test]
    fn path_to_sink_descends_in_depth() {
        let tree = CollectionTree::build(&grid(), NodeId::new(0)).unwrap();
        let path = tree.path_to_sink(NodeId::new(15)).unwrap();
        assert_eq!(*path.first().unwrap(), NodeId::new(15));
        assert_eq!(*path.last().unwrap(), NodeId::new(0));
        for w in path.windows(2) {
            assert_eq!(tree.depth(w[1]).unwrap() + 1, tree.depth(w[0]).unwrap());
        }
    }

    #[test]
    fn transmissions_per_round_equals_sum_of_depths() {
        let tree = CollectionTree::build(&grid(), NodeId::new(0)).unwrap();
        let total: usize = (0..16u32)
            .map(|i| tree.depth(NodeId::new(i)).unwrap())
            .sum();
        assert_eq!(tree.transmissions_per_round(), total);
    }

    #[test]
    fn disconnected_nodes_are_unreachable() {
        let topo = Topology::from_positions(
            vec![
                Point2::new(0.0, 0.0),
                Point2::new(1.0, 0.0),
                Point2::new(100.0, 0.0),
            ],
            1.5,
        )
        .unwrap();
        let tree = CollectionTree::build(&topo, NodeId::new(0)).unwrap();
        assert_eq!(tree.unreachable(), vec![NodeId::new(2)]);
        assert_eq!(tree.subtree_size(NodeId::new(2)), 0);
        assert!(tree.path_to_sink(NodeId::new(2)).is_none());
    }

    #[test]
    fn repair_reroutes_around_failures() {
        let topo = grid();
        let tree = CollectionTree::build(&topo, NodeId::new(0)).unwrap();
        // Node 1 and 4 are the sink's only neighbours; kill node 1.
        let repaired = tree.repair(&topo, &[NodeId::new(1)]).unwrap();
        assert_eq!(repaired.depth(NodeId::new(1)), None);
        // Node 2 (previously through 1) now routes via 4/5/6.
        assert!(repaired.depth(NodeId::new(2)).is_some());
        assert!(repaired.depth(NodeId::new(2)).unwrap() >= 2);
        // Everyone else still covered.
        assert_eq!(repaired.unreachable(), vec![NodeId::new(1)]);
    }

    #[test]
    fn repair_rejects_sink_failure() {
        let topo = grid();
        let tree = CollectionTree::build(&topo, NodeId::new(0)).unwrap();
        assert!(tree.repair(&topo, &[NodeId::new(0)]).is_err());
    }

    #[test]
    fn bad_sink_rejected() {
        assert!(CollectionTree::build(&grid(), NodeId::new(99)).is_err());
    }
}
