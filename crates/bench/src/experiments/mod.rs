//! The experiment harnesses (see DESIGN.md §4 for the index).
//!
//! Each experiment module exposes a `Params` struct whose `Default` is
//! the paper-scale configuration, a `reduced()` constructor for fast CI
//! runs, and a `run(&Params) -> ExperimentReport`. [`mesh`] is not an
//! experiment: it is the fixture E9–E14 share.

pub mod ablations;
pub mod e10_serving;
pub mod e11_slo;
pub mod e12_quant;
pub mod e13_replace;
pub mod e14_venue;
pub mod e1_temperature;
pub mod e2_motion;
pub mod e3_mac;
pub mod e4_train;
pub mod e5_counting;
pub mod e6_csi;
pub mod e7_link;
pub mod e8_energy;
pub mod e9_faults;
pub mod mesh;
pub mod x1_planner;
pub mod x2_fusion;
