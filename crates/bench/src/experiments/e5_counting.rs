//! E5 — people counting from synchronized WSN RSSI (paper §IV.B,
//! ref \[66\]).
//!
//! Paper setting: a laboratory 802.15.4 deployment measuring strictly
//! synchronized inter-node and surrounding RSSI via the Choco platform.
//! Reported: ≈79 % exact accuracy on the number of people, "with errors
//! up to two people".

use crate::report::{ExperimentReport, Row};
use crate::sweep::SweepRunner;
use zeiot_core::geometry::Point2;
use zeiot_core::rng::SeedRng;
use zeiot_net::rssi::RssiSampler;
use zeiot_net::Topology;
use zeiot_nn::eval::ConfusionMatrix;
use zeiot_sensing::counting::{CountingFeatures, PeopleCounter};

/// Tunable experiment size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Largest occupancy to calibrate and test.
    pub max_people: usize,
    /// Calibration rounds per occupancy count.
    pub train_rounds: usize,
    /// Test rounds per occupancy count.
    pub test_rounds: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            max_people: 10,
            train_rounds: 40,
            test_rounds: 15,
            seed: 17,
        }
    }
}

impl Params {
    /// A fast variant for integration tests.
    pub fn reduced() -> Self {
        Self {
            max_people: 6,
            train_rounds: 15,
            test_rounds: 6,
            seed: 17,
        }
    }
}

/// The laboratory deployment: a 4×4 802.15.4 mesh over a 9×9 m room.
///
/// # Panics
///
/// Never; the layout is statically valid.
pub fn laboratory() -> Topology {
    Topology::grid(4, 4, 3.0, 4.5).expect("valid layout")
}

fn measurement_round(
    sampler: &RssiSampler,
    count: usize,
    rng: &mut SeedRng,
) -> Option<CountingFeatures> {
    // People (each carrying a phone) scattered across the room; the
    // synchronized platform takes several samples per round and the
    // estimator works on their average.
    let people: Vec<Point2> = (0..count)
        .map(|_| Point2::new(rng.uniform_range(0.0, 9.0), rng.uniform_range(0.0, 9.0)))
        .collect();
    let mut acc: Option<CountingFeatures> = None;
    let reps = 4;
    for _ in 0..reps {
        let inter = sampler.inter_node_rssi(&people, rng);
        let surrounding = sampler.surrounding_rssi(&people, 0.9, rng);
        let f = CountingFeatures::extract(&inter, &surrounding)?;
        acc = Some(match acc {
            None => f,
            Some(a) => CountingFeatures::new(
                a.mean_inter_node_dbm + f.mean_inter_node_dbm,
                a.mean_surrounding_dbm + f.mean_surrounding_dbm,
            ),
        });
    }
    acc.map(|a| {
        CountingFeatures::new(
            a.mean_inter_node_dbm / reps as f64,
            a.mean_surrounding_dbm / reps as f64,
        )
    })
}

/// Runs E5 serially (equivalent to [`run_with`] at any thread count).
pub fn run(params: &Params) -> ExperimentReport {
    run_with(params, &SweepRunner::serial())
}

/// Distinguishes the calibration sweep's derived RNG streams from the
/// evaluation sweep's (same point indices, different master).
const TEST_SWEEP_SALT: u64 = 0x7e57_0000_0000_0001;

/// Runs E5 with one sweep point per occupancy count, for both the
/// calibration and the evaluation rounds; each point draws from its own
/// derived stream, so results are identical for every thread count.
pub fn run_with(params: &Params, runner: &SweepRunner) -> ExperimentReport {
    let sampler = RssiSampler::ieee802154(laboratory())
        .expect("sampler")
        .with_noise_sigma(1.2)
        .expect("valid sigma");

    let calibration = runner.run_seeded(
        params.seed,
        params.max_people + 1,
        |count, rng, _recorder| {
            (0..params.train_rounds)
                .filter_map(|_| measurement_round(&sampler, count, rng))
                .collect::<Vec<_>>()
        },
    );
    let training: Vec<(CountingFeatures, usize)> = calibration
        .outputs
        .into_iter()
        .enumerate()
        .flat_map(|(count, features)| features.into_iter().map(move |f| (f, count)))
        .collect();
    let counter = PeopleCounter::fit(&training).expect("fit");

    let evaluation = runner.run_seeded(
        params.seed ^ TEST_SWEEP_SALT,
        params.max_people + 1,
        |count, rng, _recorder| {
            (0..params.test_rounds)
                .filter_map(|_| measurement_round(&sampler, count, rng))
                .map(|f| counter.predict(&f))
                .collect::<Vec<_>>()
        },
    );
    let mut cm = ConfusionMatrix::new(params.max_people + 1);
    for (count, predictions) in evaluation.outputs.iter().enumerate() {
        for &predicted in predictions {
            cm.record(count, predicted);
        }
    }

    let mut report = ExperimentReport::new(
        "E5",
        "People counting from synchronized inter-node/surrounding RSSI",
    );
    report.push(Row::with_paper(
        "exact-count accuracy",
        0.79,
        cm.accuracy(),
        "fraction",
    ));
    report.push(Row::with_paper(
        "errors within two people",
        1.0,
        cm.within_k(2),
        "fraction",
    ));
    report.push(Row::measured_only(
        "mean absolute error",
        cm.mean_absolute_error(),
        "people",
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_run_reproduces_the_shape() {
        let report = run(&Params::reduced());
        let exact = report.row("exact-count accuracy").unwrap().measured;
        let within2 = report.row("errors within two people").unwrap().measured;
        let mae = report.row("mean absolute error").unwrap().measured;
        // Shape: well above the 1/7 chance level, almost always within
        // two people, sub-person mean error.
        assert!(exact > 0.45, "exact={exact}");
        assert!(within2 > 0.9, "within2={within2}");
        assert!(mae < 1.5, "mae={mae}");
    }

    #[test]
    fn laboratory_is_connected() {
        let routes = zeiot_net::RoutingTable::shortest_paths(&laboratory());
        assert!(routes.diameter().is_some());
        assert_eq!(laboratory().len(), 16);
    }
}
