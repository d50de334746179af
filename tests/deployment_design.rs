//! Integration: the §III.B design-support flow — floor plan in,
//! obstacle-aware topology, collection plan, and a MicroDeep assignment
//! over the same deployment.

use zeiot::core::geometry::Point2;
use zeiot::core::id::NodeId;
use zeiot::core::time::SimDuration;
use zeiot::microdeep::{Assignment, CnnConfig, CostModel};
use zeiot::net::{RoutingTable, Topology};
use zeiot::plan::planner::{Planner, Requirements};
use zeiot::rf::obstacle::ObstacleMap;

fn office_topology() -> Topology {
    let plan = ObstacleMap::four_rooms(20.0, 20.0);
    let mut positions = Vec::new();
    for row in 0..5 {
        for col in 0..5 {
            positions.push(Point2::new(2.0 + col as f64 * 3.9, 2.0 + row as f64 * 3.9));
        }
    }
    Topology::from_positions_with_obstacles(positions, 6.0, &plan, 3.0).unwrap()
}

#[test]
fn obstacle_aware_office_supports_a_collection_plan() {
    let topo = office_topology();
    assert!(RoutingTable::shortest_paths(&topo).diameter().is_some());
    let planner = Planner::new(&topo, NodeId::new(0)).unwrap();
    let req = Requirements {
        cycle: SimDuration::from_secs(1),
        payload_bits: 256,
        bit_rate_bps: 250e3,
        channels: 2,
    };
    let plan = planner.plan(&req).unwrap();
    assert!(plan.feasible, "round={:?}", plan.round_duration);
    assert!(plan.uncovered.is_empty());
    // Walls lengthen routes: the obstacle-aware tree is at least as deep
    // as the free-space tree over the same node positions.
    let open = Topology::from_positions_with_obstacles(
        topo.positions().to_vec(),
        6.0,
        &ObstacleMap::empty(),
        3.0,
    )
    .unwrap();
    let open_plan = Planner::new(&open, NodeId::new(0))
        .unwrap()
        .plan(&req)
        .unwrap();
    assert!(plan.tree.height() >= open_plan.tree.height());
    assert!(plan.schedule.length() >= open_plan.schedule.length());
}

#[test]
fn microdeep_assignment_works_over_the_obstacle_topology() {
    // The same office mesh can host a CNN whose sensing grid matches the
    // 5×5 deployment.
    let topo = office_topology();
    let config = CnnConfig::new(1, 5, 5, 3, 2, 2, 8, 2).unwrap();
    let graph = config.unit_graph().unwrap();
    let assignment = Assignment::balanced_correspondence(&graph, &topo);
    let cap = graph.total_units().div_ceil(topo.len());
    assert!(assignment.units_per_node().iter().all(|&c| c <= cap));
    let cost = CostModel::new(&topo);
    let central = Assignment::centralized(&graph, &topo);
    assert!(
        cost.forward_cost(&graph, &assignment).max_cost()
            < cost.forward_cost(&graph, &central).max_cost()
    );
}

#[test]
fn planner_recovers_when_a_room_is_lost() {
    // Kill the top-right room's nodes (power cut): replanning covers the
    // survivors through the remaining doors.
    let topo = office_topology();
    let planner = Planner::new(&topo, NodeId::new(0)).unwrap();
    let req = Requirements {
        cycle: SimDuration::from_secs(2),
        payload_bits: 256,
        bit_rate_bps: 250e3,
        channels: 1,
    };
    // Nodes in x>10, y>10 quadrant: cols 3-4, rows 3-4 → indices.
    let failed: Vec<NodeId> = topo
        .node_ids()
        .filter(|n| {
            let p = topo.position(*n);
            p.x > 10.0 && p.y > 10.0
        })
        .collect();
    assert!(!failed.is_empty());
    let plan = planner.replan_after_failures(&req, &failed).unwrap();
    assert!(plan.uncovered.is_empty(), "uncovered: {:?}", plan.uncovered);
    assert!(plan.feasible);
}
