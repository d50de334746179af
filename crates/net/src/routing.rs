//! Shortest-path routing over the mesh.
//!
//! MicroDeep's communication cost between two units on different nodes is
//! the number of per-hop transmissions along the route, so the assignment
//! algorithms need all-pairs hop distances and concrete paths.

use crate::topology::Topology;
use std::collections::VecDeque;
use zeiot_core::id::NodeId;

/// All-pairs shortest paths by hop count (BFS per source — all links have
/// equal cost in the mesh abstraction).
///
/// See the crate-level example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    n: usize,
    /// `next[src][dst]` = next hop from src toward dst (usize::MAX when
    /// unreachable or src == dst).
    next: Vec<Vec<usize>>,
    /// `dist[src][dst]` = hop count (usize::MAX when unreachable).
    dist: Vec<Vec<usize>>,
}

impl RoutingTable {
    /// Computes shortest paths over `topology`.
    pub fn shortest_paths(topology: &Topology) -> Self {
        let n = topology.len();
        let mut next = vec![vec![usize::MAX; n]; n];
        let mut dist = vec![vec![usize::MAX; n]; n];
        for src in 0..n {
            // BFS from src; record parent pointers, then derive next hops.
            let mut parent = vec![usize::MAX; n];
            let mut d = vec![usize::MAX; n];
            d[src] = 0;
            let mut queue = VecDeque::new();
            queue.push_back(src);
            while let Some(u) = queue.pop_front() {
                for &v in topology.neighbors(NodeId::new(u as u32)) {
                    let v = v.index();
                    if d[v] == usize::MAX {
                        d[v] = d[u] + 1;
                        parent[v] = u;
                        queue.push_back(v);
                    }
                }
            }
            for dst in 0..n {
                dist[src][dst] = d[dst];
                if dst == src || d[dst] == usize::MAX {
                    continue;
                }
                // Walk back from dst to the first hop after src.
                let mut cur = dst;
                while parent[cur] != src {
                    cur = parent[cur];
                }
                next[src][dst] = cur;
            }
        }
        Self { n, next, dist }
    }

    /// Hop distance from `src` to `dst`, `None` when unreachable.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn hop_distance(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        let d = self.dist[src.index()][dst.index()];
        (d != usize::MAX).then_some(d)
    }

    /// The full path from `src` to `dst` inclusive, `None` when
    /// unreachable.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if src == dst {
            return Some(vec![src]);
        }
        self.hop_distance(src, dst)?;
        let mut path = vec![src];
        let mut cur = src.index();
        while cur != dst.index() {
            cur = self.next[cur][dst.index()];
            debug_assert!(cur != usize::MAX, "broken next-hop chain");
            path.push(NodeId::new(cur as u32));
        }
        Some(path)
    }

    /// The network diameter in hops (`None` if disconnected).
    pub fn diameter(&self) -> Option<usize> {
        let mut max = 0;
        for s in 0..self.n {
            for d in 0..self.n {
                if s == d {
                    continue;
                }
                if self.dist[s][d] == usize::MAX {
                    return None;
                }
                max = max.max(self.dist[s][d]);
            }
        }
        Some(max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeiot_core::geometry::Point2;

    fn chain(n: usize) -> Topology {
        let positions = (0..n).map(|i| Point2::new(i as f64, 0.0)).collect();
        Topology::from_positions(positions, 1.1).unwrap()
    }

    #[test]
    fn chain_distances() {
        let routes = RoutingTable::shortest_paths(&chain(5));
        assert_eq!(routes.hop_distance(NodeId::new(0), NodeId::new(4)), Some(4));
        assert_eq!(routes.hop_distance(NodeId::new(2), NodeId::new(2)), Some(0));
    }

    #[test]
    fn chain_path_is_sequential() {
        let routes = RoutingTable::shortest_paths(&chain(4));
        let path = routes.path(NodeId::new(0), NodeId::new(3)).unwrap();
        let expect: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        assert_eq!(path, expect);
    }

    #[test]
    fn self_path_is_singleton() {
        let routes = RoutingTable::shortest_paths(&chain(3));
        assert_eq!(
            routes.path(NodeId::new(1), NodeId::new(1)),
            Some(vec![NodeId::new(1)])
        );
    }

    #[test]
    fn grid_diagonal_distance() {
        let topo = Topology::grid(5, 5, 1.0, 1.1).unwrap(); // orthogonal links
        let routes = RoutingTable::shortest_paths(&topo);
        // Manhattan distance in an orthogonal grid: 4 + 4 = 8.
        assert_eq!(
            routes.hop_distance(NodeId::new(0), NodeId::new(24)),
            Some(8)
        );
        assert_eq!(routes.diameter(), Some(8));
    }

    #[test]
    fn disconnected_pairs_are_none() {
        let topo =
            Topology::from_positions(vec![Point2::new(0.0, 0.0), Point2::new(100.0, 0.0)], 1.0)
                .unwrap();
        let routes = RoutingTable::shortest_paths(&topo);
        assert_eq!(routes.hop_distance(NodeId::new(0), NodeId::new(1)), None);
        assert_eq!(routes.path(NodeId::new(0), NodeId::new(1)), None);
        assert_eq!(routes.diameter(), None);
    }

    #[test]
    fn paths_are_consistent_with_distances() {
        let mut rng = zeiot_core::rng::SeedRng::new(9);
        let topo = crate::topology::Topology::random(25, 12.0, 12.0, 4.0, &mut rng).unwrap();
        let routes = RoutingTable::shortest_paths(&topo);
        for a in topo.node_ids() {
            for b in topo.node_ids() {
                match routes.path(a, b) {
                    Some(p) => {
                        assert_eq!(p.len() - 1, routes.hop_distance(a, b).unwrap());
                        // Every consecutive pair is an actual link.
                        for w in p.windows(2) {
                            assert!(topo.connected(w[0], w[1]) || w[0] == w[1]);
                        }
                    }
                    None => assert_eq!(routes.hop_distance(a, b), None),
                }
            }
        }
    }
}
