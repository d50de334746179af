//! Integration: §V resilience — node failures, unit re-homing, and the
//! accuracy/cost consequences across the whole stack.
//!
//! Each failure is repaired offline by one unbounded
//! `microdeep::replace::plan_incremental` pass (a single a-priori epoch:
//! no fabric, no migration budget) and priced with `CostModel`; the
//! runtime engine has its own suite in `crates/microdeep/src/replace.rs`
//! and E13.

use zeiot::core::id::NodeId;
use zeiot::core::rng::SeedRng;
use zeiot::data::gait::GaitGenerator;
use zeiot::microdeep::replace::plan_incremental;
use zeiot::microdeep::{Assignment, CnnConfig, CostModel, DistributedCnn, WeightUpdate};
use zeiot::net::routing::RoutingTable;
use zeiot::net::Topology;

fn setup() -> (CnnConfig, Topology, Assignment) {
    let config = CnnConfig::new(10, 8, 8, 4, 3, 2, 16, 2).unwrap();
    let topo = Topology::grid(8, 8, 0.5, 0.75).unwrap();
    let graph = config.unit_graph().unwrap();
    let assignment = Assignment::balanced_correspondence(&graph, &topo);
    (config, topo, assignment)
}

#[test]
fn recovery_keeps_the_network_functional_after_failures() {
    let (config, topo, assignment) = setup();
    let graph = config.unit_graph().unwrap();
    // Kill 10% of nodes scattered across the mesh.
    let failed: Vec<NodeId> = [3u32, 17, 29, 41, 55, 62].map(NodeId::new).to_vec();
    let (repaired, outcome) = plan_incremental(&graph, &topo, &assignment, &failed, usize::MAX);
    assert_eq!(outcome.stranded, 0, "{outcome:?}");

    // The degraded mesh still routes between all surviving nodes.
    let degraded = topo.without_nodes(&failed);
    let routes = RoutingTable::shortest_paths(&degraded);
    for a in topo.node_ids().filter(|n| !failed.contains(n)) {
        for b in topo.node_ids().filter(|n| !failed.contains(n)) {
            assert!(
                routes.hop_distance(a, b).is_some(),
                "survivors {a}→{b} disconnected"
            );
        }
    }

    // And the repaired assignment's traffic is finite and bounded.
    let cost = CostModel::new(&degraded);
    let ledger = cost.forward_cost(&graph, &repaired);
    assert!(ledger.total_cost() > 0);
    for f in &failed {
        // Failed nodes host nothing, but cost accounting may still route
        // around them — verify they transmit nothing as hosts.
        let hosted: usize = (1..graph.layer_count())
            .map(|l| {
                (0..graph.units_in_layer(l))
                    .filter(|&u| repaired.host_of(l, u) == *f)
                    .count()
            })
            .sum();
        assert_eq!(hosted, 0);
    }
}

#[test]
fn trained_model_survives_reassignment() {
    // Train, kill a node, re-home its units: the per-unit weights move
    // with their units, so accuracy is unchanged (the model is the same
    // function; only placement changed).
    let (config, topo, assignment) = setup();
    let graph = config.unit_graph().unwrap();
    let mut rng = SeedRng::new(13);
    let data = GaitGenerator::paper_array()
        .unwrap()
        .generate(150, 3, &mut rng);
    let (train, test) = data.split_at(120);

    let mut net = DistributedCnn::new(config, assignment.clone(), WeightUpdate::PerUnit, &mut rng);
    for _ in 0..6 {
        net.train_epoch(train, 0.04, 16, &mut rng);
    }
    let acc_before = net.accuracy(test);

    let (repaired, _) =
        plan_incremental(&graph, &topo, &assignment, &[NodeId::new(20)], usize::MAX);
    // Placement is metadata for cost purposes; the function is identical.
    let cost = CostModel::new(&topo);
    let before = cost.forward_cost(&graph, &assignment).max_cost();
    let after = cost.forward_cost(&graph, &repaired).max_cost();
    assert!(acc_before > 0.7);
    // Peak cost may rise (fewer hosts) but stays the same order.
    assert!(after < before * 4, "before={before} after={after}");
}

#[test]
fn progressive_failures_degrade_gracefully() {
    let (config, topo, assignment) = setup();
    let graph = config.unit_graph().unwrap();
    let mut peak_costs = Vec::new();
    for kill in [0usize, 4, 8, 16] {
        let failed: Vec<NodeId> = (0..kill as u32).map(|i| NodeId::new(i * 3 + 1)).collect();
        let (repaired, outcome) = plan_incremental(&graph, &topo, &assignment, &failed, usize::MAX);
        assert_eq!(outcome.stranded, 0, "kill={kill}: {outcome:?}");
        let degraded = topo.without_nodes(&failed);
        let cost = CostModel::new(&degraded);
        peak_costs.push(cost.forward_cost(&graph, &repaired).max_cost());
    }
    // Peak cost grows as survivors absorb more units, but never explodes
    // past the centralized ceiling.
    let central = CostModel::new(&topo)
        .forward_cost(&graph, &Assignment::centralized(&graph, &topo))
        .max_cost();
    assert!(peak_costs[3] >= peak_costs[0]);
    assert!(
        peak_costs[3] < central,
        "{peak_costs:?} vs central {central}"
    );
}
