//! # zeiot — zero-energy IoT context recognition
//!
//! A comprehensive Rust reproduction of *"Context Recognition of Humans
//! and Objects by Distributed Zero-Energy IoT Devices"* (Higashino,
//! Uchiyama, Saruwatari, Yamaguchi, Watanabe — IEEE ICDCS 2019).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `zeiot-core` | ids, geometry, units, time, deterministic RNG |
//! | [`sim`] | `zeiot-sim` | discrete-event simulation kernel + metrics |
//! | [`rf`] | `zeiot-rf` | path loss, fading, noise, BER/PER, link budgets, body shadowing |
//! | [`energy`] | `zeiot-energy` | harvesters, capacitor store, power profiles, intermittent execution |
//! | [`backscatter`] | `zeiot-backscatter` | backscatter PHY, cycle registry, coexistence MAC |
//! | [`net`] | `zeiot-net` | WSN topologies, routing, traffic accounting, synchronized flooding, RSSI sampling |
//! | [`nn`] | `zeiot-nn` | tensors, CNN layers with backprop, training, unit-graph topology |
//! | [`microdeep`] | `zeiot-microdeep` | **the paper's contribution**: distributed CNN assignment, cost model, independent-update training, resilience |
//! | [`fault`] | `zeiot-fault` | deterministic fault injection: lossy links, brownout windows, corruption, recovery policies |
//! | [`serve`] | `zeiot-serve` | multi-tenant inference serving: sharded EDF queues, micro-batching, admission control, degraded-mode fallback |
//! | [`sensing`] | `zeiot-sensing` | train congestion/positioning, people counting, CSI localization, PEM, sociograms, trajectories |
//! | [`plan`] | `zeiot-plan` | design-support planner: collection trees, TDMA schedules, failure replanning |
//! | [`data`] | `zeiot-data` | synthetic datasets standing in for the paper's hardware captures |
//! | [`obs`] | `zeiot-obs` | observability: labeled metrics recorder, causal tracing, JSONL export |
//!
//! # Quickstart
//!
//! ```
//! use zeiot::microdeep::{Assignment, CnnConfig, CostModel};
//! use zeiot::net::Topology;
//!
//! # fn main() -> Result<(), zeiot::core::ConfigError> {
//! // The motion-experiment CNN on a 4×4 sensor mesh.
//! let config = CnnConfig::new(1, 8, 8, 4, 3, 2, 16, 2)?;
//! let graph = config.unit_graph()?;
//! let topo = Topology::grid(4, 4, 2.0, 3.0)?;
//!
//! let central = Assignment::centralized(&graph, &topo);
//! let microdeep = Assignment::balanced_correspondence(&graph, &topo);
//!
//! let cost = CostModel::new(&topo);
//! let peak_ratio = cost.peak_cost_ratio(&graph, &microdeep, &central).expect("baseline has traffic");
//! assert!(peak_ratio < 1.0); // MicroDeep flattens the hottest node
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench`
//! for the harnesses regenerating every quantitative result in the
//! paper (EXPERIMENTS.md maps them).

pub use zeiot_backscatter as backscatter;
pub use zeiot_core as core;
pub use zeiot_data as data;
pub use zeiot_energy as energy;
pub use zeiot_fault as fault;
pub use zeiot_microdeep as microdeep;
pub use zeiot_net as net;
pub use zeiot_nn as nn;
pub use zeiot_obs as obs;
pub use zeiot_plan as plan;
pub use zeiot_rf as rf;
pub use zeiot_sensing as sensing;
pub use zeiot_serve as serve;
pub use zeiot_sim as sim;
