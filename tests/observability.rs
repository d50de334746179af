//! End-to-end checks of the observability layer through the facade:
//! the lossless runtime's message count against the static forward cost
//! model, observation transparency, and the JSONL export round trip.

use zeiot::backscatter::mac::{simulate, simulate_with, MacConfig, MacFaults, MacMode};
use zeiot::core::rng::SeedRng;
use zeiot::core::time::SimDuration;
use zeiot::fault::{FaultPlan, RecoveryPolicy};
use zeiot::microdeep::cost::record_traffic;
use zeiot::microdeep::{
    Assignment, CnnConfig, CostModel, DistributedCnn, LossyRuntime, WeightUpdate,
};
use zeiot::net::{RoutingTable, Topology};
use zeiot::nn::tensor::Tensor;
use zeiot::obs::{from_jsonl, to_jsonl, write_jsonl, Label, Recorder};

/// The runtime is the traffic truth. On a lossless fabric one forward
/// sends exactly the cross-node dependency edges, which the static cost
/// model charges at their route hops and exports node for node, and a
/// training sample's backward sends at most the edges that do not end
/// at an input unit: none when every computational unit shares a node.
#[test]
fn instrumented_traffic_matches_the_static_cost_model() {
    let config = CnnConfig::new(1, 8, 8, 4, 3, 2, 16, 2).unwrap();
    let graph = config.unit_graph().unwrap();
    let topo = Topology::grid(4, 4, 2.0, 3.0).unwrap();
    let cost = CostModel::new(&topo);
    let routes = RoutingTable::shortest_paths(&topo);
    let mut rng = SeedRng::new(7);
    let x = Tensor::uniform(vec![1, 8, 8], 1.0, &mut rng);

    for (assignment, centralized) in [
        (Assignment::centralized(&graph, &topo), true),
        (Assignment::balanced_correspondence(&graph, &topo), false),
    ] {
        let (mut edges, mut input_edges, mut hops) = (0u64, 0u64, 0u64);
        for l in 1..graph.layer_count() {
            for u in 0..graph.units_in_layer(l) {
                let dst = assignment.host_of(l, u);
                for d in graph.dependencies(l, u) {
                    let src = assignment.host_of(l - 1, d);
                    if src != dst {
                        edges += 1;
                        input_edges += u64::from(l == 1);
                        hops += routes.hop_distance(src, dst).unwrap() as u64;
                    }
                }
            }
        }
        let ledger = cost.forward_cost(&graph, &assignment);
        assert_eq!(topo.node_ids().map(|n| ledger.tx(n)).sum::<u64>(), hops);
        let mut rec = Recorder::new();
        record_traffic(&ledger, &mut rec);
        for node in topo.node_ids() {
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

        let mut net = DistributedCnn::new(config, assignment, WeightUpdate::PerUnit, &mut rng);
        let mut rt = LossyRuntime::new(
            FaultPlan::lossless(),
            RecoveryPolicy::FailFast,
            &topo,
            SimDuration::from_millis(500),
        );
        net.forward_lossy(&x, &mut rt).unwrap();
        assert_eq!(rt.stats().sent, edges);
        net.train_epoch_lossy(&[(x.clone(), 1)], 0.05, 1, &mut rng, &mut rt)
            .unwrap();
        let backward = rt.stats().sent - 2 * edges;
        assert!(backward <= edges - input_edges, "backward {backward}");
        assert_eq!(backward == 0, centralized, "backward {backward}");
    }
}

/// Observing a simulation must not change it: the observed MAC run
/// returns a report identical to the unobserved run with the same seed.
#[test]
fn observation_is_transparent_to_the_mac_simulation() {
    let config = MacConfig::default_with_devices(12).unwrap();
    let duration = SimDuration::from_secs(10);
    for mode in [MacMode::Scheduled, MacMode::Naive] {
        let plain = simulate(&config, mode, duration, &mut SeedRng::new(9));
        let mut rec = Recorder::new();
        let observed = simulate_with(
            &config,
            mode,
            duration,
            &mut SeedRng::new(9),
            &MacFaults::none(),
            Some(&mut rec),
            None,
        );
        assert_eq!(plain, observed, "{mode:?} diverged under observation");
    }
}

/// A merged multi-subsystem snapshot survives the JSONL file round trip.
#[test]
fn jsonl_export_round_trips_through_a_file() {
    let config = MacConfig::default_with_devices(8).unwrap();
    let mut rec = Recorder::new();
    simulate_with(
        &config,
        MacMode::Scheduled,
        SimDuration::from_secs(10),
        &mut SeedRng::new(3),
        &MacFaults::none(),
        Some(&mut rec),
        None,
    );
    let snap = rec.snapshot();
    assert!(!snap.counters.is_empty());

    let path =
        std::env::temp_dir().join(format!("zeiot-observability-{}.jsonl", std::process::id()));
    write_jsonl(&path, &snap).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let read_back = from_jsonl(&text).unwrap();
    assert_eq!(read_back, from_jsonl(&to_jsonl(&snap)).unwrap());
    assert_eq!(
        read_back.len(),
        text.lines().filter(|l| !l.trim().is_empty()).count()
    );
}
