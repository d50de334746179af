//! E3 — WLAN/backscatter coexistence MAC (paper §IV.A, ref \[64\]).
//!
//! The paper's protocol registers each IoT device's communication cycle
//! with the AP and schedules grants (with dummy carrier packets when WLAN
//! traffic is thin) so that "wireless LAN communication and backscatter
//! communication coexist with low overhead". This harness sweeps the
//! number of IoT devices and compares the scheduled MAC against naive
//! coexistence on WLAN delivery, backscatter PER and dummy overhead —
//! the qualitative claims of §IV.A.

use crate::report::{ExperimentReport, Row};
use crate::sweep::SweepRunner;
use zeiot_backscatter::mac::{simulate_with, MacConfig, MacFaults, MacMode};
use zeiot_core::rng::SeedRng;
use zeiot_core::time::SimDuration;

/// Tunable experiment size.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Device counts to sweep.
    pub device_counts: Vec<usize>,
    /// Simulated seconds per point.
    pub seconds: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            device_counts: vec![5, 10, 20, 40, 80],
            seconds: 60,
            seed: 11,
        }
    }
}

impl Params {
    /// A fast variant for integration tests.
    pub fn reduced() -> Self {
        Self {
            device_counts: vec![5, 40],
            seconds: 10,
            seed: 11,
        }
    }
}

/// Runs E3 serially (equivalent to [`run_with`] at any thread count).
///
/// # Panics
///
/// Panics if `params.device_counts` is empty.
pub fn run(params: &Params) -> ExperimentReport {
    run_with(params, &SweepRunner::serial())
}

/// Runs E3 with the device-count sweep fanned out across threads;
/// results are identical for every thread count (each point seeds both
/// MAC modes from the master seed, exactly as the serial harness always
/// has).
///
/// # Panics
///
/// Panics if `params.device_counts` is empty.
pub fn run_with(params: &Params, runner: &SweepRunner) -> ExperimentReport {
    assert!(!params.device_counts.is_empty(), "need at least one point");
    let duration = SimDuration::from_secs(params.seconds);

    // Instrument the largest sweep point (both modes into its recorder):
    // grants and dummy frames come from the scheduled run, collisions
    // from the naive one.
    let max_devices = *params.device_counts.iter().max().expect("non-empty");

    let sweep = runner.run_seeded(
        params.seed,
        params.device_counts.len(),
        |index, _rng, recorder| {
            let n = params.device_counts[index];
            let config = MacConfig::default_with_devices(n).expect("valid config");
            let observed = n == max_devices;
            let mut run = |mode| {
                let mut rng = SeedRng::new(params.seed);
                let recorder = observed.then_some(&mut *recorder);
                simulate_with(
                    &config,
                    mode,
                    duration,
                    &mut rng,
                    &MacFaults::none(),
                    recorder,
                    None,
                )
            };
            let sched = run(MacMode::Scheduled);
            let naive = run(MacMode::Naive);
            (
                sched.wlan_delivery_ratio(),
                naive.wlan_delivery_ratio(),
                sched.backscatter_per(),
                naive.backscatter_per(),
                sched.dummy_overhead(),
            )
        },
    );

    let mut wlan_sched = Vec::new();
    let mut wlan_naive = Vec::new();
    let mut bs_per_sched = Vec::new();
    let mut bs_per_naive = Vec::new();
    let mut dummy_overhead = Vec::new();
    for &(ws, wn, ps, pn, dummy) in &sweep.outputs {
        wlan_sched.push(ws);
        wlan_naive.push(wn);
        bs_per_sched.push(ps);
        bs_per_naive.push(pn);
        dummy_overhead.push(dummy);
    }

    let last = params.device_counts.len() - 1;
    let mut report = ExperimentReport::new(
        "E3",
        "Scheduled backscatter MAC vs naive coexistence (device sweep)",
    );
    report.push(Row::measured_only(
        "WLAN delivery @max devices (scheduled)",
        wlan_sched[last],
        "fraction",
    ));
    report.push(Row::measured_only(
        "WLAN delivery @max devices (naive)",
        wlan_naive[last],
        "fraction",
    ));
    report.push(Row::measured_only(
        "backscatter PER @max devices (scheduled)",
        bs_per_sched[last],
        "fraction",
    ));
    report.push(Row::measured_only(
        "backscatter PER @max devices (naive)",
        bs_per_naive[last],
        "fraction",
    ));
    report.push(Row::measured_only(
        "dummy-carrier overhead @max devices",
        dummy_overhead[last],
        "airtime fraction",
    ));
    report.push_series(
        "device counts",
        params.device_counts.iter().map(|&d| d as f64).collect(),
    );
    report.push_series("wlan delivery (scheduled)", wlan_sched);
    report.push_series("wlan delivery (naive)", wlan_naive);
    report.push_series("backscatter PER (scheduled)", bs_per_sched);
    report.push_series("backscatter PER (naive)", bs_per_naive);
    report.push_series("dummy overhead (scheduled)", dummy_overhead);
    report.attach_metrics(sweep.metrics);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_run_reproduces_the_shape() {
        let report = run(&Params::reduced());
        let wlan_sched = report
            .row("WLAN delivery @max devices (scheduled)")
            .unwrap()
            .measured;
        let wlan_naive = report
            .row("WLAN delivery @max devices (naive)")
            .unwrap()
            .measured;
        let per_sched = report
            .row("backscatter PER @max devices (scheduled)")
            .unwrap()
            .measured;
        let per_naive = report
            .row("backscatter PER @max devices (naive)")
            .unwrap()
            .measured;
        // The protocol's claims: WLAN protected, backscatter reliable.
        assert!(wlan_sched > wlan_naive, "{wlan_sched} vs {wlan_naive}");
        assert!(per_sched < per_naive, "{per_sched} vs {per_naive}");
        assert!(wlan_sched > 0.95);
    }

    #[test]
    fn report_metrics_round_trip_as_jsonl() {
        // What the e3_mac binary writes under `--jsonl` must come back
        // intact through the deserializer.
        let report = run(&Params::reduced());
        let snap = report.export_snapshot();
        assert!(snap.counter_total("mac.grants") > 0, "observed run empty");
        let text = zeiot_obs::to_jsonl(&snap);
        let records = zeiot_obs::from_jsonl(&text).unwrap();
        assert_eq!(records.len(), text.lines().count());
        assert!(records.iter().any(|r| matches!(
            r,
            zeiot_obs::JsonlRecord::Gauge { name, .. } if name.starts_with("bench.")
        )));
    }

    #[test]
    fn naive_wlan_degrades_monotonically_in_the_sweep() {
        let report = run(&Params {
            device_counts: vec![5, 20, 80],
            seconds: 10,
            seed: 3,
        });
        let series = &report
            .series
            .iter()
            .find(|(n, _)| n == "wlan delivery (naive)")
            .unwrap()
            .1;
        assert!(series[0] > series[2], "{series:?}");
    }
}
