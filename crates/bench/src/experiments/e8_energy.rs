//! E8 — the zero-energy power budget (paper §I).
//!
//! The framing numbers this workspace must respect everywhere: sensing
//! runs at µW–tens of µW; conventional radio at tens–hundreds of mW;
//! ambient backscatter at ≈10 µW — about **1/10,000** of active radio.
//! This harness also sweeps harvested power against a fixed sensing+
//! backscatter workload to measure the achievable duty cycle of an
//! intermittent device.

use crate::report::{ExperimentReport, Row};
use crate::sweep::SweepRunner;
use zeiot_core::rng::SeedRng;
use zeiot_core::time::SimDuration;
use zeiot_core::units::{Joule, Watt};
use zeiot_energy::capacitor::Capacitor;
use zeiot_energy::consumer::{DeviceState, PowerProfile};
use zeiot_energy::harvester::ConstantSource;
use zeiot_energy::intermittent::{IntermittentDevice, Task};
use zeiot_obs::{Label, Recorder};

/// Tunable experiment size.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Harvest powers (µW) to sweep for the duty-cycle curve.
    pub harvest_uw: Vec<f64>,
    /// Simulated seconds per sweep point.
    pub seconds: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            harvest_uw: vec![5.0, 10.0, 20.0, 40.0, 80.0, 160.0],
            seconds: 60,
            seed: 23,
        }
    }
}

impl Params {
    /// A fast variant for integration tests.
    pub fn reduced() -> Self {
        Self {
            harvest_uw: vec![10.0, 80.0],
            seconds: 15,
            seed: 23,
        }
    }
}

fn duty_cycle_at(harvest_uw: f64, seconds: u64, rng: &mut SeedRng, recorder: &mut Recorder) -> f64 {
    let mut device = IntermittentDevice::new(
        ConstantSource::new(Watt::new(harvest_uw * 1e-6)).expect("source"),
        Capacitor::new(100e-6, 2.4, 1.8, 3.0).expect("capacitor"),
        PowerProfile::backscatter_tag().expect("profile"),
        SimDuration::from_millis(10),
    )
    .expect("device");
    let task = Task::new(
        u64::MAX / 2, // effectively endless work
        10,
        Joule::from_microjoules(0.5),
        Joule::from_microjoules(0.3),
    )
    .expect("task");
    device
        .run(
            &task,
            SimDuration::from_secs(seconds),
            rng,
            Some((recorder, Label::part(format!("{harvest_uw}uW")))),
        )
        .duty_cycle
}

/// Runs E8 serially (equivalent to [`run_with`] at any thread count).
///
/// # Panics
///
/// Panics if `params.harvest_uw` is empty.
pub fn run(params: &Params) -> ExperimentReport {
    run_with(params, &SweepRunner::serial())
}

/// Runs E8 with the harvest-power sweep fanned out across threads; each
/// point simulates its own device from its own derived stream and
/// recorder, so results are identical for every thread count.
///
/// # Panics
///
/// Panics if `params.harvest_uw` is empty.
pub fn run_with(params: &Params, runner: &SweepRunner) -> ExperimentReport {
    assert!(!params.harvest_uw.is_empty(), "need at least one point");
    let tag = PowerProfile::backscatter_tag().expect("profile");
    let node = PowerProfile::active_802154_node().expect("profile");
    let ble = PowerProfile::ble_node().expect("profile");

    let bs_power = tag.draw(DeviceState::Backscatter).value();
    let radio_power = 100e-3; // the paper's 100 mW reference radio
    let power_ratio = bs_power / radio_power;

    let bs_epb = tag.energy_per_bit(DeviceState::Backscatter, 250e3).value();
    let radio_epb = node.energy_per_bit(DeviceState::ActiveRadio, 250e3).value();

    // Each sweep point runs its own device whose sim clock restarts at
    // zero, so traces from consecutive points are not globally
    // time-ordered: each point records separately and the runner merges
    // the snapshots in point order.
    let sweep = runner.run_seeded(
        params.seed,
        params.harvest_uw.len(),
        |index, rng, recorder| {
            duty_cycle_at(params.harvest_uw[index], params.seconds, rng, recorder)
        },
    );
    let duty = sweep.outputs;

    let mut report = ExperimentReport::new("E8", "Zero-energy power budget and duty cycles");
    report.push(Row::with_paper(
        "backscatter power",
        10.0,
        bs_power * 1e6,
        "µW",
    ));
    report.push(Row::with_paper(
        "active-radio / backscatter power ratio",
        10_000.0,
        1.0 / power_ratio,
        "ratio",
    ));
    report.push(Row::measured_only(
        "sensing power (tag profile)",
        tag.draw(DeviceState::Sense).value() * 1e6,
        "µW",
    ));
    report.push(Row::measured_only(
        "BLE radio power",
        ble.draw(DeviceState::ActiveRadio).value() * 1e3,
        "mW",
    ));
    report.push(Row::measured_only(
        "802.15.4 radio power",
        node.draw(DeviceState::ActiveRadio).value() * 1e3,
        "mW",
    ));
    report.push(Row::measured_only(
        "energy/bit ratio (active radio / backscatter)",
        radio_epb / bs_epb,
        "ratio",
    ));
    report.push_series("harvest power (µW)", params.harvest_uw.clone());
    report.push_series("duty cycle", duty);
    report.attach_metrics(sweep.metrics);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_run_reproduces_the_paper_taxonomy() {
        let report = run(&Params::reduced());
        let ratio = report
            .row("active-radio / backscatter power ratio")
            .unwrap()
            .measured;
        assert!((ratio - 10_000.0).abs() < 1.0, "ratio={ratio}");
        let epb = report
            .row("energy/bit ratio (active radio / backscatter)")
            .unwrap()
            .measured;
        assert!(epb > 1_000.0, "epb={epb}");
        // Duty cycle grows with harvest power.
        let duty = &report
            .series
            .iter()
            .find(|(n, _)| n == "duty cycle")
            .unwrap()
            .1;
        assert!(duty[1] > duty[0], "{duty:?}");
    }

    /// Traces from consecutive sweep points restart at sim time zero;
    /// a single shared recorder used to panic on the full default
    /// sweep. The merged snapshot must keep every point's metrics.
    #[test]
    fn full_sweep_merges_metrics_across_points() {
        let params = Params::default();
        let report = run(&params);
        let snap = report.metrics.as_ref().expect("metrics attached");
        let labels: std::collections::BTreeSet<_> = snap
            .counters
            .iter()
            .filter(|c| c.name == "energy.harvested_uj")
            .map(|c| c.label.clone())
            .collect();
        assert_eq!(labels.len(), params.harvest_uw.len(), "{labels:?}");
    }
}
