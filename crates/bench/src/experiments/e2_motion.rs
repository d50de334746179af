//! E2 — the IR-array motion/fall experiment and **Fig. 10** (paper §IV.C).
//!
//! Paper setting: an 8×8 film-type IR sensor array at 5 fps, 2-second
//! (10-frame) windows, CNN of one conv + one pool + two dense layers.
//! Reported comparison:
//!
//! * (a) standard CNN with the **optimal parameter set**: accuracy
//!   91.875 %, maximal per-node communication cost **360**;
//! * (b) **feasible parameter set with heuristic assignment** (maximize
//!   CNN-link/WSN-link correspondence, equalize units per node):
//!   accuracy 89.7275 % (≈2 points lower), maximal cost **210**
//!   (≈40 % lower).
//!
//! Fig. 10 plots the per-node communication cost profile of both; this
//! harness emits the same two series.

use crate::report::{ExperimentReport, Row};
use crate::sweep::SweepRunner;
use zeiot_core::rng::SeedRng;
use zeiot_data::gait::GaitGenerator;
use zeiot_microdeep::{Assignment, CnnConfig, CostModel, DistributedCnn, WeightUpdate};
use zeiot_net::Topology;

/// Tunable experiment size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Labelled windows to generate (paper: 6,610 3-D arrays).
    pub samples: usize,
    /// Distinct subjects (paper: 5).
    pub subjects: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            samples: 800,
            subjects: 5,
            epochs: 15,
            seed: 7,
        }
    }
}

impl Params {
    /// A fast variant for integration tests.
    pub fn reduced() -> Self {
        Self {
            samples: 120,
            subjects: 3,
            epochs: 5,
            seed: 7,
        }
    }
}

/// The "optimal parameter set" CNN: 6 filters, 32 hidden units — the
/// accuracy-first configuration of Fig. 10(a).
///
/// # Panics
///
/// Never; the geometry is statically valid.
pub fn optimal_config() -> CnnConfig {
    CnnConfig::new(10, 8, 8, 6, 3, 2, 32, 2).expect("valid geometry")
}

/// The "feasible parameter set" CNN: 4 filters, 16 hidden units — small
/// enough to spread over the array's 64 microprocessors, Fig. 10(b).
///
/// # Panics
///
/// Never; the geometry is statically valid.
pub fn feasible_config() -> CnnConfig {
    CnnConfig::new(10, 8, 8, 4, 3, 2, 16, 2).expect("valid geometry")
}

/// The sensor array: one node per IR sensor, 8×8 mesh.
///
/// # Panics
///
/// Never; the layout is statically valid.
pub fn array_topology() -> Topology {
    Topology::grid(8, 8, 0.5, 0.75).expect("valid layout")
}

/// Runs E2 serially (equivalent to [`run_with`] at any thread count).
pub fn run(params: &Params) -> ExperimentReport {
    run_with(params, &SweepRunner::serial())
}

/// Runs E2 with the two parameter-set arms trained as parallel sweep
/// points; results are identical for every thread count.
pub fn run_with(params: &Params, runner: &SweepRunner) -> ExperimentReport {
    let mut rng = SeedRng::new(params.seed);
    let generator = GaitGenerator::paper_array().expect("paper array");
    let data = generator.generate(params.samples, params.subjects, &mut rng);
    let split = data.len() * 4 / 5;
    let (train, test) = data.split_at(split);

    let topo = array_topology();
    let cost = CostModel::new(&topo);

    // Placements are deterministic; compute them up front so both arms'
    // communication profiles come from the same assignments the trained
    // models use.
    let opt_config = optimal_config();
    let opt_graph = opt_config.unit_graph().expect("valid");
    let opt_assignment = Assignment::grid_projection(&opt_graph, &topo);
    let opt_cost = cost.forward_cost(&opt_graph, &opt_assignment);
    let fea_config = feasible_config();
    let fea_graph = fea_config.unit_graph().expect("valid");
    let fea_assignment = Assignment::balanced_correspondence(&fea_graph, &topo);
    let fea_cost = cost.forward_cost(&fea_graph, &fea_assignment);

    // Two model arms as sweep points, each with its own derived stream:
    // (a) optimal parameter set, centralized training for best accuracy;
    // (b) feasible parameter set + heuristic balanced assignment, trained
    // with per-node replica independence (the paper's literal "updated
    // independently by each sensor node"; per-unit independence is the
    // other granularity, used in E1 — see EXPERIMENTS.md).
    let arms = runner.run_seeded(params.seed, 2, |arm, rng, _recorder| {
        if arm == 0 {
            let mut optimal = opt_config.build_centralized(rng);
            for _ in 0..params.epochs {
                optimal.train_epoch(train, 0.04, 16, rng);
            }
            optimal.accuracy(test)
        } else {
            let mut feasible = DistributedCnn::new(
                fea_config,
                fea_assignment.clone(),
                WeightUpdate::Independent,
                rng,
            );
            for _ in 0..params.epochs {
                feasible.train_epoch(train, 0.04, 16, rng);
            }
            feasible.accuracy(test)
        }
    });
    let acc_optimal = arms.outputs[0];
    let acc_feasible = arms.outputs[1];

    let mut report = ExperimentReport::new(
        "E2",
        "IR-array fall detection + Fig. 10 per-node communication profiles",
    );
    report.push(Row::with_paper(
        "accuracy (optimal parameter set)",
        0.91875,
        acc_optimal,
        "fraction",
    ));
    report.push(Row::with_paper(
        "accuracy (feasible + heuristic)",
        0.897275,
        acc_feasible,
        "fraction",
    ));
    report.push(Row::with_paper(
        "max per-node cost (optimal, Fig. 10a)",
        360.0,
        opt_cost.max_cost() as f64,
        "msgs/pass",
    ));
    report.push(Row::with_paper(
        "max per-node cost (feasible, Fig. 10b)",
        210.0,
        fea_cost.max_cost() as f64,
        "msgs/pass",
    ));
    report.push(Row::with_paper(
        "max-cost reduction",
        0.40,
        1.0 - fea_cost.max_cost() as f64 / opt_cost.max_cost() as f64,
        "fraction",
    ));
    report.push(Row::with_paper(
        "accuracy drop",
        0.0215,
        acc_optimal - acc_feasible,
        "fraction",
    ));
    report.push_series(
        "per-node cost (optimal, Fig. 10a)",
        opt_cost.costs().iter().map(|&c| c as f64).collect(),
    );
    report.push_series(
        "per-node cost (feasible, Fig. 10b)",
        fea_cost.costs().iter().map(|&c| c as f64).collect(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_run_reproduces_fig10_shape() {
        let report = run(&Params::reduced());
        let max_opt = report
            .row("max per-node cost (optimal, Fig. 10a)")
            .unwrap()
            .measured;
        let max_fea = report
            .row("max per-node cost (feasible, Fig. 10b)")
            .unwrap()
            .measured;
        // The heuristic must flatten the peak substantially.
        assert!(max_fea < max_opt, "fea={max_fea} opt={max_opt}");
        let reduction = report.row("max-cost reduction").unwrap().measured;
        assert!(reduction > 0.2, "reduction={reduction}");
        // Both classifiers learn the task.
        let acc_opt = report
            .row("accuracy (optimal parameter set)")
            .unwrap()
            .measured;
        let acc_fea = report
            .row("accuracy (feasible + heuristic)")
            .unwrap()
            .measured;
        assert!(acc_opt > 0.8, "acc_opt={acc_opt}");
        assert!(acc_fea > 0.7, "acc_fea={acc_fea}");
    }

    #[test]
    fn configs_differ_in_size() {
        let opt = optimal_config().unit_graph().unwrap().total_units();
        let fea = feasible_config().unit_graph().unwrap().total_units();
        assert!(opt > fea * 15 / 10, "opt={opt} fea={fea}");
        assert_eq!(array_topology().len(), 64);
    }
}
