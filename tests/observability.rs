//! End-to-end checks of the observability layer through the facade:
//! instrumented counters against the static cost model, observation
//! transparency, and the JSONL export round trip.

use zeiot::backscatter::mac::{simulate, simulate_with, MacConfig, MacFaults, MacMode};
use zeiot::core::id::NodeId;
use zeiot::core::rng::SeedRng;
use zeiot::core::time::SimDuration;
use zeiot::microdeep::{Assignment, CnnConfig, CostModel, TrafficInstrument};
use zeiot::net::Topology;
use zeiot::obs::{from_jsonl, to_jsonl, write_jsonl, Label, Recorder};

/// The satellite cross-check: the dynamic per-node radio counters the
/// instrument records during a pass must equal, node for node, what the
/// paper's static cost model predicts. The two implementations count
/// independently (the instrument walks dependency edges and route hops
/// itself), so agreement validates both.
#[test]
fn instrumented_traffic_matches_the_static_cost_model() {
    let config = CnnConfig::new(1, 8, 8, 4, 3, 2, 16, 2).unwrap();
    let graph = config.unit_graph().unwrap();
    let topo = Topology::grid(4, 4, 2.0, 3.0).unwrap();
    let cost = CostModel::new(&topo);
    let instrument = TrafficInstrument::new(&topo);

    for assignment in [
        Assignment::centralized(&graph, &topo),
        Assignment::balanced_correspondence(&graph, &topo),
    ] {
        let mut rec = Recorder::new();
        instrument.record_forward(&graph, &assignment, &mut rec);
        let ledger = cost.forward_cost(&graph, &assignment);
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
