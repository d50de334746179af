//! E1 — the lounge temperature experiment (paper §IV.C).
//!
//! Paper setting: a >1,400 m² lounge divided into 25×17 cells, 50
//! temperature sensors, 2,961 samples, CNN trained to detect discomfort.
//! Reported: standard CNN ≈97 % accuracy; MicroDeep ≈95 %; MicroDeep's
//! **maximal per-node communication cost is just 13 %** of the standard
//! (centralized) version's.

use crate::report::{ExperimentReport, Row};
use crate::sweep::SweepRunner;
use zeiot_core::rng::SeedRng;
use zeiot_data::temperature::TemperatureFieldGenerator;
use zeiot_microdeep::{Assignment, CnnConfig, CostModel, DistributedCnn, WeightUpdate};
use zeiot_net::Topology;

/// Tunable experiment size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Labelled samples to generate (paper: 2,961).
    pub samples: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            samples: 2_000,
            epochs: 12,
            seed: 42,
        }
    }
}

impl Params {
    /// A fast variant for integration tests.
    pub fn reduced() -> Self {
        Self {
            samples: 400,
            epochs: 8,
            seed: 42,
        }
    }
}

/// The experiment's CNN: 17×25 input, 4 filters of 4×4, 2×2 pooling,
/// 32 hidden units, binary discomfort output.
///
/// # Panics
///
/// Never; the geometry is statically valid.
pub fn cnn_config() -> CnnConfig {
    CnnConfig::new(1, 17, 25, 4, 4, 2, 32, 2).expect("valid geometry")
}

/// The 50-sensor deployment: a 10×5 grid covering the lounge.
///
/// # Panics
///
/// Never; the layout is statically valid.
pub fn deployment() -> Topology {
    Topology::grid(10, 5, 5.0, 7.6).expect("valid layout")
}

/// Runs E1 serially (equivalent to [`run_with`] at any thread count).
pub fn run(params: &Params) -> ExperimentReport {
    run_with(params, &SweepRunner::serial())
}

/// Runs E1 with the two model arms (standard CNN, MicroDeep) trained as
/// parallel sweep points; results are identical for every thread count.
pub fn run_with(params: &Params, runner: &SweepRunner) -> ExperimentReport {
    let mut rng = SeedRng::new(params.seed);
    let generator = TemperatureFieldGenerator::paper_lounge().expect("paper lounge");
    let mut data = generator.generate(params.samples, &mut rng);
    TemperatureFieldGenerator::normalize(&mut data);
    let split = data.len() * 4 / 5;
    let (train, test) = data.split_at(split);

    let config = cnn_config();
    let topo = deployment();
    let graph = config.unit_graph().expect("valid config");
    let assignment = Assignment::balanced_correspondence(&graph, &topo);

    // Two independent model arms, each trained from its own derived
    // stream: 0 = standard (centralized) CNN, 1 = MicroDeep with the
    // balanced assignment and independent per-unit weight updates. The
    // salt keeps the arm streams distinct from the data-generation RNG.
    let arms = runner.run_seeded(params.seed ^ 0xE1A0, 2, |arm, rng, _recorder| {
        if arm == 0 {
            let mut standard = config.build_centralized(rng);
            for _ in 0..params.epochs {
                standard.train_epoch(train, 0.05, 16, rng);
            }
            (standard.accuracy(test), 0.0)
        } else {
            let mut microdeep =
                DistributedCnn::new(config, assignment.clone(), WeightUpdate::PerUnit, rng);
            for _ in 0..params.epochs {
                microdeep.train_epoch(train, 0.05, 16, rng);
            }
            let acc = microdeep.accuracy(test);
            (acc, microdeep.replica_divergence())
        }
    });
    let (acc_standard, _) = arms.outputs[0];
    let (acc_microdeep, replica_divergence) = arms.outputs[1];

    // Communication cost: MicroDeep vs the centralized standard.
    let cost = CostModel::new(&topo);
    let central = Assignment::centralized(&graph, &topo);
    let cost_central = cost.forward_cost(&graph, &central);
    let cost_micro = cost.forward_cost(&graph, &assignment);
    let peak_ratio = cost_micro.max_cost() as f64 / cost_central.max_cost() as f64;

    let mut report = ExperimentReport::new(
        "E1",
        "Lounge temperature discomfort detection (25×17 cells, 50 sensors)",
    );
    report.push(Row::with_paper(
        "accuracy (standard CNN)",
        0.97,
        acc_standard,
        "fraction",
    ));
    report.push(Row::with_paper(
        "accuracy (MicroDeep)",
        0.95,
        acc_microdeep,
        "fraction",
    ));
    report.push(Row::with_paper(
        "peak-traffic ratio (MicroDeep / standard)",
        0.13,
        peak_ratio,
        "fraction",
    ));
    report.push(Row::measured_only(
        "max per-node cost (centralized)",
        cost_central.max_cost() as f64,
        "msgs/pass",
    ));
    report.push(Row::measured_only(
        "max per-node cost (MicroDeep)",
        cost_micro.max_cost() as f64,
        "msgs/pass",
    ));
    report.push(Row::measured_only(
        "replica divergence after training",
        replica_divergence,
        "L2",
    ));
    report.push_series(
        "per-node cost (centralized)",
        cost_central.costs().iter().map(|&c| c as f64).collect(),
    );
    report.push_series(
        "per-node cost (MicroDeep)",
        cost_micro.costs().iter().map(|&c| c as f64).collect(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_run_reproduces_the_shape() {
        let report = run(&Params::reduced());
        let std_acc = report.row("accuracy (standard CNN)").unwrap().measured;
        let md_acc = report.row("accuracy (MicroDeep)").unwrap().measured;
        let ratio = report
            .row("peak-traffic ratio (MicroDeep / standard)")
            .unwrap()
            .measured;
        // Shape: both learn well above chance; MicroDeep within a few
        // points of standard; peak traffic far below centralized.
        assert!(std_acc > 0.8, "std_acc={std_acc}");
        assert!(md_acc > 0.75, "md_acc={md_acc}");
        assert!(md_acc >= std_acc - 0.15, "md={md_acc} std={std_acc}");
        assert!(ratio < 0.5, "ratio={ratio}");
    }

    #[test]
    fn config_matches_paper_grid() {
        let c = cnn_config();
        assert_eq!(c.in_height() * c.in_width(), 425);
        assert_eq!(deployment().len(), 50);
    }
}
