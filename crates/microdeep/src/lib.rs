//! # zeiot-microdeep
//!
//! MicroDeep: distributed CNN execution on wireless sensor networks — the
//! primary contribution of Higashino et al. (ICDCS 2019, §IV.C; originally
//! SMARTCOMP 2018 \[7\]).
//!
//! A mesh of sensor nodes continuously produces 2-D sensing data (a
//! temperature field, an IR intensity image). Instead of shipping raw
//! data to a server, the CNN's *units* (neurons) are assigned to the
//! sensor nodes themselves; forward and backward propagation travel as
//! radio messages between nodes. The engineering problem is the
//! assignment: every CNN edge whose endpoints live on different nodes
//! costs transmissions, and the node with the *maximum* communication
//! cost is the one that dies first on harvested energy.
//!
//! The crate provides:
//!
//! - [`config`] — the canonical MicroDeep CNN (1 conv + 1 pool + 2 dense,
//!   the architecture of both paper experiments) and its centralized
//!   baseline;
//! - [`assignment`] — unit-to-node assignment algorithms: the
//!   all-on-sink centralized baseline, spatial grid projection, and the
//!   paper's load-equalizing link-correspondence heuristic;
//! - [`cost`] — per-node communication-cost evaluation of an assignment
//!   (regenerates Fig. 10);
//! - [`distributed`] — distributed training semantics: per-node kernel
//!   replicas updated *independently* (the paper's
//!   communication-avoiding strategy, which "sacrific\[es\] some
//!   accuracy") or synchronized (centralized SGD up to float rounding);
//! - [`lossy`] — execution over a fault-injecting radio fabric, with
//!   recovery policies and per-unit hop spans;
//! - [`quantized`] — the frozen i8 deployment with exact i32
//!   accumulation, plain or over the lossy fabric;
//! - [`replace`] — the runtime re-placement engine: fault/brownout-driven
//!   "musical chairs" that re-homes units from dark nodes onto survivors
//!   under a migration budget, shipping their state over the lossy fabric
//!   (§V); one unbounded [`replace::plan_incremental`] pass is the static
//!   offline repair.
//!
//! Every execution mode — f32 or i8, perfect or lossy radio, traced or
//! not — runs the same forward and backward loop nests, generic over how
//! values cross between nodes and which number domain the units compute
//! in. A lossless fabric therefore reproduces the plain pass bit for bit
//! by construction.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), zeiot_core::ConfigError> {
//! use zeiot_microdeep::config::CnnConfig;
//! use zeiot_microdeep::assignment::Assignment;
//! use zeiot_microdeep::cost::CostModel;
//! use zeiot_net::Topology;
//!
//! let config = CnnConfig::new(1, 8, 8, 4, 3, 2, 16, 2)?;
//! let graph = config.unit_graph()?;
//! let topo = Topology::grid(4, 4, 2.0, 3.0)?;
//!
//! let central = Assignment::centralized(&graph, &topo);
//! let balanced = Assignment::balanced_correspondence(&graph, &topo);
//!
//! let cost = CostModel::new(&topo);
//! let c1 = cost.forward_cost(&graph, &central);
//! let c2 = cost.forward_cost(&graph, &balanced);
//! // Equalized assignment lowers the hottest node's traffic.
//! assert!(c2.max_cost() < c1.max_cost());
//! # Ok(())
//! # }
//! ```

pub mod assignment;
pub mod config;
pub mod cost;
pub mod distributed;
mod exec;
pub mod lossy;
pub mod quantized;
pub mod replace;

pub use assignment::Assignment;
pub use config::CnnConfig;
pub use cost::CostModel;
pub use distributed::{DistributedCnn, WeightUpdate};
pub use lossy::{LossyRuntime, STAGE_SENSING};
pub use quantized::{QuantStats, QuantizedCnn};
pub use replace::{ReplaceConfig, ReplaceStats, ReplaceStrategy, ReplacementEngine};
