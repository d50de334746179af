//! Node placement and range-based connectivity.

use serde::{Deserialize, Serialize};
use zeiot_core::error::{require_positive, ConfigError, Result};
use zeiot_core::geometry::Point2;
use zeiot_core::id::NodeId;
use zeiot_core::rng::SeedRng;

/// A static wireless sensor network layout: node positions plus an
/// undirected connectivity relation (nodes within communication range).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), zeiot_core::ConfigError> {
/// use zeiot_net::topology::Topology;
/// use zeiot_core::id::NodeId;
///
/// let topo = Topology::grid(3, 3, 1.0, 1.5)?;
/// assert_eq!(topo.len(), 9);
/// // The centre node neighbours its 4 orthogonal + 4 diagonal peers
/// // (diagonal distance √2 ≈ 1.41 < 1.5).
/// assert_eq!(topo.neighbors(NodeId::new(4)).len(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    positions: Vec<Point2>,
    range_m: f64,
    adjacency: Vec<Vec<NodeId>>,
}

impl Topology {
    /// Builds a topology from explicit positions and a communication
    /// range.
    ///
    /// # Errors
    ///
    /// Returns an error if `positions` is empty or `range_m` is not
    /// strictly positive.
    pub fn from_positions(positions: Vec<Point2>, range_m: f64) -> Result<Self> {
        if positions.is_empty() {
            return Err(ConfigError::new("positions", "must be non-empty"));
        }
        let range_m = require_positive("range_m", range_m)?;
        let n = positions.len();
        let mut adjacency = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                if positions[i].distance(positions[j]) <= range_m {
                    adjacency[i].push(NodeId::new(j as u32));
                    adjacency[j].push(NodeId::new(i as u32));
                }
            }
        }
        Ok(Self {
            positions,
            range_m,
            adjacency,
        })
    }

    /// A regular `cols × rows` grid with `spacing_m` between neighbours.
    ///
    /// # Errors
    ///
    /// Returns an error if either dimension is zero or spacing/range are
    /// not strictly positive.
    pub fn grid(cols: usize, rows: usize, spacing_m: f64, range_m: f64) -> Result<Self> {
        if cols == 0 || rows == 0 {
            return Err(ConfigError::new("cols/rows", "must be non-zero"));
        }
        let spacing_m = require_positive("spacing_m", spacing_m)?;
        let mut positions = Vec::with_capacity(cols * rows);
        for row in 0..rows {
            for col in 0..cols {
                positions.push(Point2::new(col as f64 * spacing_m, row as f64 * spacing_m));
            }
        }
        Self::from_positions(positions, range_m)
    }

    /// Builds a topology whose connectivity respects a floor plan: a
    /// wall's attenuation is converted to the equivalent extra distance
    /// under the given path-loss exponent (`d_eff = d · 10^(A / 10n)`),
    /// and a link exists when the effective distance is within range —
    /// the "(a) 3D map and obstacle information" input of paper §III.B.
    ///
    /// # Errors
    ///
    /// Returns an error if `positions` is empty or `range_m`/`exponent`
    /// is not strictly positive.
    pub fn from_positions_with_obstacles(
        positions: Vec<Point2>,
        range_m: f64,
        obstacles: &zeiot_rf::obstacle::ObstacleMap,
        path_loss_exponent: f64,
    ) -> Result<Self> {
        if positions.is_empty() {
            return Err(ConfigError::new("positions", "must be non-empty"));
        }
        let range_m = require_positive("range_m", range_m)?;
        let exponent = require_positive("path_loss_exponent", path_loss_exponent)?;
        let n = positions.len();
        let mut adjacency = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = positions[i].distance(positions[j]);
                let wall_db = obstacles.attenuation(positions[i], positions[j]).value();
                let effective = d * 10f64.powf(wall_db / (10.0 * exponent));
                if effective <= range_m {
                    adjacency[i].push(NodeId::new(j as u32));
                    adjacency[j].push(NodeId::new(i as u32));
                }
            }
        }
        Ok(Self {
            positions,
            range_m,
            adjacency,
        })
    }

    /// `n` nodes placed uniformly at random in a `width_m × height_m`
    /// rectangle.
    ///
    /// # Errors
    ///
    /// Returns an error if `n` is zero or any dimension is not strictly
    /// positive.
    pub fn random(
        n: usize,
        width_m: f64,
        height_m: f64,
        range_m: f64,
        rng: &mut SeedRng,
    ) -> Result<Self> {
        if n == 0 {
            return Err(ConfigError::new("n", "must be non-zero"));
        }
        let width_m = require_positive("width_m", width_m)?;
        let height_m = require_positive("height_m", height_m)?;
        let positions = (0..n)
            .map(|_| {
                Point2::new(
                    rng.uniform_range(0.0, width_m),
                    rng.uniform_range(0.0, height_m),
                )
            })
            .collect();
        Self::from_positions(positions, range_m)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the topology has no nodes (never true for a built one).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The communication range.
    pub fn range_m(&self) -> f64 {
        self.range_m
    }

    /// Position of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub fn position(&self, node: NodeId) -> Point2 {
        self.positions[node.index()]
    }

    /// All node positions, indexed by node id.
    pub fn positions(&self) -> &[Point2] {
        &self.positions
    }

    /// Neighbours of a node (within range, excluding itself).
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.adjacency[node.index()]
    }

    /// Whether two nodes are directly connected.
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        self.adjacency[a.index()].contains(&b)
    }

    /// Euclidean distance between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.position(a).distance(self.position(b))
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.positions.len() as u32).map(NodeId::new)
    }

    /// Iterates over all undirected edges `(a, b)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adjacency.iter().enumerate().flat_map(|(i, nbrs)| {
            let a = NodeId::new(i as u32);
            nbrs.iter().filter(move |b| a < **b).map(move |&b| (a, b))
        })
    }

    /// The node whose position is nearest to `p` (ties to the lower id).
    pub fn nearest_node(&self, p: Point2) -> NodeId {
        let mut best = NodeId::new(0);
        let mut best_d = f64::INFINITY;
        for (i, pos) in self.positions.iter().enumerate() {
            let d = pos.distance_squared(p);
            if d < best_d {
                best_d = d;
                best = NodeId::new(i as u32);
            }
        }
        best
    }

    /// Removes nodes (marks them failed) and returns the induced
    /// sub-topology with the same ids but no edges to failed nodes.
    /// Used by resilience experiments (paper §V: "a part of tiny IoT
    /// devices may be broken"). Ids the topology does not have are
    /// ignored.
    pub fn without_nodes(&self, failed: &[NodeId]) -> Self {
        let mut adjacency = self.adjacency.clone();
        for f in failed {
            if let Some(nbrs) = adjacency.get_mut(f.index()) {
                nbrs.clear();
            }
        }
        for nbrs in &mut adjacency {
            nbrs.retain(|n| !failed.contains(n));
        }
        Self {
            positions: self.positions.clone(),
            range_m: self.range_m,
            adjacency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutingTable;

    #[test]
    fn grid_positions_and_counts() {
        let t = Topology::grid(4, 3, 2.0, 2.1).unwrap();
        assert_eq!(t.len(), 12);
        assert_eq!(t.position(NodeId::new(0)), Point2::new(0.0, 0.0));
        assert_eq!(t.position(NodeId::new(5)), Point2::new(2.0, 2.0));
    }

    #[test]
    fn grid_connectivity_orthogonal_only_with_tight_range() {
        let t = Topology::grid(3, 3, 1.0, 1.1).unwrap();
        // Corner: 2 neighbors; edge: 3; centre: 4.
        assert_eq!(t.neighbors(NodeId::new(0)).len(), 2);
        assert_eq!(t.neighbors(NodeId::new(1)).len(), 3);
        assert_eq!(t.neighbors(NodeId::new(4)).len(), 4);
    }

    #[test]
    fn connectivity_is_symmetric() {
        let mut rng = SeedRng::new(1);
        let t = Topology::random(30, 20.0, 20.0, 6.0, &mut rng).unwrap();
        for a in t.node_ids() {
            for &b in t.neighbors(a) {
                assert!(t.connected(b, a), "asymmetric link {a}–{b}");
            }
        }
    }

    #[test]
    fn edges_enumerated_once() {
        let t = Topology::grid(3, 3, 1.0, 1.1).unwrap();
        let edges: Vec<_> = t.edges().collect();
        // 3×3 grid with orthogonal links: 12 edges.
        assert_eq!(edges.len(), 12);
        for (a, b) in &edges {
            assert!(a < b);
        }
    }

    #[test]
    fn nearest_node_picks_closest() {
        let t = Topology::grid(3, 3, 2.0, 2.1).unwrap();
        assert_eq!(t.nearest_node(Point2::new(0.1, 0.2)), NodeId::new(0));
        assert_eq!(t.nearest_node(Point2::new(3.9, 3.8)), NodeId::new(8));
        assert_eq!(t.nearest_node(Point2::new(2.0, 2.0)), NodeId::new(4));
    }

    #[test]
    fn without_nodes_cuts_edges_both_ways() {
        let t = Topology::grid(3, 1, 1.0, 1.1).unwrap(); // chain 0-1-2
        let cut = t.without_nodes(&[NodeId::new(1)]);
        assert!(cut.neighbors(NodeId::new(1)).is_empty());
        assert!(!cut.connected(NodeId::new(0), NodeId::new(1)));
        assert!(RoutingTable::shortest_paths(&cut).diameter().is_none());
        // Original untouched.
        assert!(t.connected(NodeId::new(0), NodeId::new(1)));
        // An id the topology does not have changes nothing.
        assert_eq!(t.without_nodes(&[NodeId::new(1), NodeId::new(99)]), cut);
        assert_eq!(t.without_nodes(&[NodeId::new(99)]), t);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(Topology::from_positions(vec![], 1.0).is_err());
        assert!(Topology::grid(0, 3, 1.0, 1.0).is_err());
        assert!(Topology::grid(3, 3, 0.0, 1.0).is_err());
        assert!(Topology::grid(3, 3, 1.0, 0.0).is_err());
        let mut rng = SeedRng::new(2);
        assert!(Topology::random(0, 1.0, 1.0, 1.0, &mut rng).is_err());
    }

    #[test]
    fn obstacles_cut_links_through_walls() {
        use zeiot_rf::obstacle::{ObstacleMap, Wall};
        // Two nodes 4 m apart; a concrete wall between them.
        let positions = vec![Point2::new(0.0, 0.0), Point2::new(4.0, 0.0)];
        let wall = ObstacleMap::new(vec![Wall::new(
            Point2::new(2.0, -5.0),
            Point2::new(2.0, 5.0),
            12.0,
        )
        .unwrap()]);
        // Range 6 m, exponent 3: without the wall they connect...
        let open = Topology::from_positions_with_obstacles(
            positions.clone(),
            6.0,
            &ObstacleMap::empty(),
            3.0,
        )
        .unwrap();
        assert!(open.connected(NodeId::new(0), NodeId::new(1)));
        // ...with it, the 12 dB penalty (≈2.5× effective distance at
        // n = 3) pushes them out of range.
        let blocked = Topology::from_positions_with_obstacles(positions, 6.0, &wall, 3.0).unwrap();
        assert!(!blocked.connected(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn obstacle_topology_with_empty_map_matches_plain() {
        use zeiot_rf::obstacle::ObstacleMap;
        let plain = Topology::grid(4, 4, 2.0, 3.0).unwrap();
        let same = Topology::from_positions_with_obstacles(
            plain.positions().to_vec(),
            3.0,
            &ObstacleMap::empty(),
            3.0,
        )
        .unwrap();
        for a in plain.node_ids() {
            for b in plain.node_ids() {
                assert_eq!(plain.connected(a, b), same.connected(a, b));
            }
        }
    }

    #[test]
    fn four_room_office_remains_connected_through_doors() {
        use zeiot_rf::obstacle::ObstacleMap;
        // Nodes spread across a 20×20 m four-room office; drywall (4 dB)
        // shortens links through walls, doors keep rooms joined.
        let plan = ObstacleMap::four_rooms(20.0, 20.0);
        // Sensors are mounted inside rooms, not inside walls: the grid
        // pitch avoids the wall lines at x = 10 / y = 10.
        let mut positions = Vec::new();
        for row in 0..5 {
            for col in 0..5 {
                positions.push(Point2::new(2.0 + col as f64 * 3.9, 2.0 + row as f64 * 3.9));
            }
        }
        let topo = Topology::from_positions_with_obstacles(positions, 6.0, &plan, 3.0).unwrap();
        assert!(
            RoutingTable::shortest_paths(&topo).diameter().is_some(),
            "office mesh split by walls"
        );
    }

    #[test]
    fn random_layout_is_within_bounds() {
        let mut rng = SeedRng::new(3);
        let t = Topology::random(50, 10.0, 5.0, 3.0, &mut rng).unwrap();
        for p in t.positions() {
            assert!((0.0..=10.0).contains(&p.x));
            assert!((0.0..=5.0).contains(&p.y));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn adjacency_matches_distance_predicate(
            seed in 0u64..1000,
            n in 2usize..25,
            range in 1.0f64..10.0,
        ) {
            let mut rng = SeedRng::new(seed);
            let t = Topology::random(n, 15.0, 15.0, range, &mut rng).unwrap();
            for a in t.node_ids() {
                for b in t.node_ids() {
                    if a == b { continue; }
                    let within = t.distance(a, b) <= range;
                    prop_assert_eq!(t.connected(a, b), within);
                }
            }
        }
    }
}
