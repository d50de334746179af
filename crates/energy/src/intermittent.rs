//! Intermittent execution.
//!
//! A harvesting device computes in bursts: the capacitor charges until
//! turn-on, the device runs (draining faster than it harvests), browns out,
//! and repeats. Work that is not checkpointed before a brownout is lost —
//! the defining systems problem of batteryless computing, and the reason
//! the paper argues single devices "do not work" alone (§V) and must be
//! orchestrated.
//!
//! [`IntermittentDevice::run`] advances this cycle over simulated time in
//! fixed steps and reports progress, duty cycle and energy accounting.

use crate::capacitor::Capacitor;
use crate::consumer::{DeviceState, PowerProfile};
use crate::harvester::HarvestSource;
use zeiot_core::error::{require_positive, Result};
use zeiot_core::rng::SeedRng;
use zeiot_core::time::{SimDuration, SimTime};
use zeiot_core::units::Joule;
use zeiot_obs::{Label, Recorder, Severity};

/// Maximum points the observed capacitor-voltage series keeps per run;
/// longer runs are decimated by a fixed stride so memory stays bounded.
pub const MAX_VOLTAGE_SAMPLES: u64 = 2048;

/// A unit of work measured in compute steps, with checkpointing cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    total_steps: u64,
    checkpoint_interval: u64,
    checkpoint_cost: Joule,
    step_energy: Joule,
}

impl Task {
    /// Creates a task of `total_steps` steps, each costing `step_energy`,
    /// checkpointing every `checkpoint_interval` steps at `checkpoint_cost`
    /// per checkpoint.
    ///
    /// # Errors
    ///
    /// Returns an error if any count is zero or any energy is not
    /// strictly positive.
    pub fn new(
        total_steps: u64,
        checkpoint_interval: u64,
        checkpoint_cost: Joule,
        step_energy: Joule,
    ) -> Result<Self> {
        if total_steps == 0 || checkpoint_interval == 0 {
            return Err(zeiot_core::error::ConfigError::new(
                "steps",
                "total_steps and checkpoint_interval must be non-zero",
            ));
        }
        require_positive("checkpoint_cost", checkpoint_cost.value())?;
        require_positive("step_energy", step_energy.value())?;
        Ok(Self {
            total_steps,
            checkpoint_interval,
            checkpoint_cost,
            step_energy,
        })
    }

    /// Total steps in the task.
    pub fn total_steps(&self) -> u64 {
        self.total_steps
    }
}

/// Result of an intermittent run.
#[derive(Debug, Clone, PartialEq)]
pub struct IntermittentOutcome {
    /// Steps of durable (checkpointed or completed) progress.
    pub durable_steps: u64,
    /// Steps executed including those later lost to brownouts.
    pub executed_steps: u64,
    /// Whether the task completed within the time budget.
    pub completed: bool,
    /// Time at completion, if completed.
    pub completion_time: Option<SimTime>,
    /// Number of brownouts experienced.
    pub brownouts: u64,
    /// Fraction of time the device was on.
    pub duty_cycle: f64,
}

/// A harvesting device executing a task intermittently.
#[derive(Debug)]
pub struct IntermittentDevice<H> {
    harvester: H,
    capacitor: Capacitor,
    profile: PowerProfile,
    step_duration: SimDuration,
}

impl<H: HarvestSource> IntermittentDevice<H> {
    /// Creates a device from its harvester, store and power profile;
    /// `step_duration` is the wall time of one compute step.
    ///
    /// # Errors
    ///
    /// Returns an error if `step_duration` is zero.
    pub fn new(
        harvester: H,
        capacitor: Capacitor,
        profile: PowerProfile,
        step_duration: SimDuration,
    ) -> Result<Self> {
        if step_duration.is_zero() {
            return Err(zeiot_core::error::ConfigError::new(
                "step_duration",
                "must be non-zero",
            ));
        }
        Ok(Self {
            harvester,
            capacitor,
            profile,
            step_duration,
        })
    }

    /// Read access to the capacitor for inspection.
    pub fn capacitor(&self) -> &Capacitor {
        &self.capacitor
    }

    /// Simulates the device under a continuous compute load for `budget`
    /// and returns its power-state transition trace: `(time, is_on)`
    /// pairs, starting with the initial state at time zero and then one
    /// entry per turn-on/brownout edge. The trace is what
    /// `zeiot_fault::FaultPlan::with_outages_from_trace` consumes to turn
    /// capacitor brownouts into radio outage windows.
    pub fn power_trace(&mut self, budget: SimDuration, rng: &mut SeedRng) -> Vec<(SimTime, bool)> {
        let mut now = SimTime::ZERO;
        let deadline = SimTime::ZERO + budget;
        let mut trace = vec![(now, self.capacitor.is_on())];
        while now < deadline {
            let harvest = self.harvester.power_at(now, rng);
            self.capacitor.charge(harvest, self.step_duration);
            if self.capacitor.is_on() {
                // Always-on compute draw: the worst case for brownouts.
                let draw = self
                    .profile
                    .energy(DeviceState::Compute, self.step_duration);
                self.capacitor.drain(draw);
            }
            now += self.step_duration;
            let is_on = self.capacitor.is_on();
            if is_on != trace.last().map(|&(_, s)| s).unwrap_or(!is_on) {
                trace.push((now, is_on));
            }
        }
        trace
    }

    /// Runs `task` for at most `budget` of simulated time.
    ///
    /// Each tick of `step_duration`: harvest; if on, execute one step
    /// (draining step energy + compute power) and checkpoint on schedule;
    /// if off, just charge. Progress since the last checkpoint is lost at
    /// each brownout.
    ///
    /// With `observe`, the device's energy life is recorded into the
    /// recorder under the label:
    ///
    /// - `energy.capacitor_v` time-series (decimated to at most
    ///   [`MAX_VOLTAGE_SAMPLES`] points);
    /// - `energy.harvested_uj` / `energy.consumed_uj` counters
    ///   (microjoules, rounded);
    /// - `energy.power_cycles`, `energy.brownouts` and
    ///   `energy.checkpoints` counters, with an info trace per turn-on
    ///   and a warn trace per brownout.
    ///
    /// The outcome is identical with or without `observe` at the same
    /// seed.
    pub fn run(
        &mut self,
        task: &Task,
        budget: SimDuration,
        rng: &mut SeedRng,
        mut observe: Option<(&mut Recorder, Label)>,
    ) -> IntermittentOutcome {
        let mut now = SimTime::ZERO;
        let deadline = SimTime::ZERO + budget;
        let mut durable: u64 = 0;
        let mut volatile: u64 = 0; // steps since last checkpoint
        let mut executed: u64 = 0;
        let mut on_time = SimDuration::ZERO;
        let brownouts_before = self.capacitor.brownouts();
        let harvested_before = self.capacitor.total_harvested();
        let consumed_before = self.capacitor.total_consumed();
        let total_ticks = (budget.as_secs_f64() / self.step_duration.as_secs_f64()).ceil();
        let sample_stride = (total_ticks as u64).div_ceil(MAX_VOLTAGE_SAMPLES).max(1);
        let mut tick: u64 = 0;

        while now < deadline && durable + volatile < task.total_steps {
            let was_on_at_tick_start = self.capacitor.is_on();
            let harvest = self.harvester.power_at(now, rng);
            self.capacitor.charge(harvest, self.step_duration);

            if self.capacitor.is_on() {
                on_time += self.step_duration;
                // Base compute-state draw for the tick plus the step cost.
                let tick_energy = self
                    .profile
                    .energy(DeviceState::Compute, self.step_duration);
                let step_total = Joule::new(tick_energy.value() + task.step_energy.value());
                if self.capacitor.try_discharge(step_total) {
                    volatile += 1;
                    executed += 1;
                    if volatile >= task.checkpoint_interval
                        && self.capacitor.try_discharge(task.checkpoint_cost)
                    {
                        durable += volatile;
                        volatile = 0;
                        if let Some((rec, label)) = observe.as_mut() {
                            rec.inc("energy.checkpoints", label.clone());
                        }
                    }
                } else {
                    // Not enough usable energy: the device keeps draining
                    // its base load until brownout.
                    let idle = self.profile.energy(DeviceState::Sleep, self.step_duration);
                    let was_on = self.capacitor.is_on();
                    self.capacitor.drain(Joule::new(
                        idle.value()
                            + self
                                .profile
                                .energy(DeviceState::Compute, self.step_duration)
                                .value(),
                    ));
                    if was_on && !self.capacitor.is_on() {
                        volatile = 0; // brownout: lose unsaved work
                    }
                }
            }
            if let Some((rec, label)) = observe.as_mut() {
                let is_on = self.capacitor.is_on();
                if is_on && !was_on_at_tick_start {
                    rec.inc("energy.power_cycles", label.clone());
                    rec.trace(now, Severity::Info, label.clone(), "power on");
                } else if !is_on && was_on_at_tick_start {
                    rec.inc("energy.brownouts", label.clone());
                    rec.trace(now, Severity::Warn, label.clone(), "brownout");
                }
                if tick.is_multiple_of(sample_stride) {
                    rec.sample(
                        "energy.capacitor_v",
                        label.clone(),
                        now,
                        self.capacitor.voltage(),
                    );
                }
            }
            tick += 1;
            now += self.step_duration;
        }

        if let Some((rec, label)) = observe.as_mut() {
            let harvested = self.capacitor.total_harvested().value() - harvested_before.value();
            let consumed = self.capacitor.total_consumed().value() - consumed_before.value();
            rec.add(
                "energy.harvested_uj",
                label.clone(),
                (harvested * 1e6).round() as u64,
            );
            rec.add(
                "energy.consumed_uj",
                label.clone(),
                (consumed * 1e6).round() as u64,
            );
        }

        let completed = durable + volatile >= task.total_steps;
        // Completion makes in-flight volatile work durable (the task's
        // final output is its own checkpoint).
        if completed {
            durable = task.total_steps;
        }
        let elapsed = now.duration_since(SimTime::ZERO);
        IntermittentOutcome {
            durable_steps: durable.min(task.total_steps),
            executed_steps: executed,
            completed,
            completion_time: completed.then_some(now),
            brownouts: self.capacitor.brownouts() - brownouts_before,
            duty_cycle: if elapsed.is_zero() {
                0.0
            } else {
                on_time.as_secs_f64() / elapsed.as_secs_f64()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harvester::ConstantSource;
    use zeiot_core::units::Watt;

    fn device(harvest_w: f64) -> IntermittentDevice<ConstantSource> {
        IntermittentDevice::new(
            ConstantSource::new(Watt::new(harvest_w)).unwrap(),
            Capacitor::new(100e-6, 2.4, 1.8, 3.0).unwrap(),
            PowerProfile::backscatter_tag().unwrap(),
            SimDuration::from_millis(10),
        )
        .unwrap()
    }

    fn small_task() -> Task {
        Task::new(
            100,
            10,
            Joule::from_microjoules(1.0),
            Joule::from_microjoules(0.5),
        )
        .unwrap()
    }

    #[test]
    fn ample_harvest_completes_task() {
        let mut dev = device(1e-3); // 1 mW: plenty
        let mut rng = SeedRng::new(1);
        let out = dev.run(&small_task(), SimDuration::from_secs(60), &mut rng, None);
        assert!(out.completed, "{out:?}");
        assert_eq!(out.durable_steps, 100);
        assert_eq!(out.brownouts, 0);
        assert!(out.completion_time.is_some());
    }

    #[test]
    fn zero_harvest_makes_no_progress() {
        let mut dev = device(0.0);
        let mut rng = SeedRng::new(2);
        let out = dev.run(&small_task(), SimDuration::from_secs(10), &mut rng, None);
        assert!(!out.completed);
        assert_eq!(out.durable_steps, 0);
        assert_eq!(out.executed_steps, 0);
        assert_eq!(out.duty_cycle, 0.0);
    }

    #[test]
    fn scarce_harvest_causes_intermittency() {
        // 30 µW harvest vs ~70 µW total active draw: must duty-cycle.
        let mut dev = device(30e-6);
        let mut rng = SeedRng::new(3);
        let task = Task::new(
            10_000,
            10,
            Joule::from_microjoules(1.0),
            Joule::from_microjoules(2.0),
        )
        .unwrap();
        let out = dev.run(&task, SimDuration::from_secs(120), &mut rng, None);
        assert!(!out.completed);
        assert!(out.duty_cycle > 0.0 && out.duty_cycle < 1.0, "{out:?}");
        assert!(out.executed_steps > 0);
    }

    #[test]
    fn duty_cycle_scales_with_harvest_power() {
        let mut rng = SeedRng::new(4);
        let task = Task::new(
            1_000_000,
            10,
            Joule::from_microjoules(1.0),
            Joule::from_microjoules(5.0),
        )
        .unwrap();
        let mut weak = device(20e-6);
        let mut strong = device(200e-6);
        let out_weak = weak.run(&task, SimDuration::from_secs(60), &mut rng, None);
        let out_strong = strong.run(&task, SimDuration::from_secs(60), &mut rng, None);
        assert!(
            out_strong.duty_cycle > out_weak.duty_cycle,
            "weak={:?} strong={:?}",
            out_weak.duty_cycle,
            out_strong.duty_cycle
        );
        assert!(out_strong.executed_steps > out_weak.executed_steps);
    }

    #[test]
    fn durable_progress_is_monotone_in_budget() {
        let mut rng = SeedRng::new(5);
        let task = Task::new(
            1_000_000,
            10,
            Joule::from_microjoules(1.0),
            Joule::from_microjoules(5.0),
        )
        .unwrap();
        let mut d1 = device(50e-6);
        let out_short = d1.run(&task, SimDuration::from_secs(20), &mut rng, None);
        let mut rng2 = SeedRng::new(5);
        let mut d2 = device(50e-6);
        let out_long = d2.run(&task, SimDuration::from_secs(60), &mut rng2, None);
        assert!(out_long.durable_steps >= out_short.durable_steps);
    }

    #[test]
    fn observed_run_matches_unobserved_outcome() {
        let mut rng_a = SeedRng::new(11);
        let mut rng_b = SeedRng::new(11);
        let task = Task::new(
            1_000_000,
            10,
            Joule::from_microjoules(1.0),
            Joule::from_microjoules(5.0),
        )
        .unwrap();
        let mut plain = device(20e-6);
        let out_a = plain.run(&task, SimDuration::from_secs(120), &mut rng_a, None);
        let mut observed = device(20e-6);
        let mut rec = Recorder::new();
        let label = Label::device(zeiot_core::id::DeviceId::new(3));
        let out_b = observed.run(
            &task,
            SimDuration::from_secs(120),
            &mut rng_b,
            Some((&mut rec, label.clone())),
        );
        assert_eq!(out_a, out_b);

        // Voltage series exists, is bounded, and spans the run.
        let series = rec.series_ref("energy.capacitor_v", &label).unwrap();
        assert!(!series.points().is_empty());
        assert!(series.points().len() as u64 <= MAX_VOLTAGE_SAMPLES + 1);
        for &(_, v) in series.points() {
            assert!((0.0..=3.0).contains(&v), "voltage {v} out of range");
        }

        // The intermittent regime power-cycles and browns out.
        assert!(rec.counter_value("energy.power_cycles", &label) > 0);
        let brownouts = rec.counter_value("energy.brownouts", &label);
        assert!(brownouts > 0);
        assert!(brownouts <= out_b.brownouts);
        assert!(rec.counter_value("energy.checkpoints", &label) > 0);
        assert!(rec.counter_value("energy.harvested_uj", &label) > 0);
        assert!(rec.counter_value("energy.consumed_uj", &label) > 0);

        // Brownout traces are warnings.
        assert!(rec
            .trace_buffer()
            .iter()
            .any(|(_, e)| e.severity == Severity::Warn && e.message == "brownout"));
    }

    #[test]
    fn power_trace_records_state_transitions() {
        // Harvest below the 20 µW compute draw: the device must
        // duty-cycle, so the trace has alternating on/off edges.
        let mut dev = device(10e-6);
        let mut rng = SeedRng::new(7);
        let trace = dev.power_trace(SimDuration::from_secs(120), &mut rng);
        assert!(trace.len() > 2, "expected duty-cycling, got {trace:?}");
        assert_eq!(trace[0].0, SimTime::ZERO);
        for pair in trace.windows(2) {
            assert!(pair[0].0 < pair[1].0, "trace out of order: {pair:?}");
            assert_ne!(pair[0].1, pair[1].1, "consecutive equal states");
        }
        // Deterministic given the same seed.
        let mut dev2 = device(10e-6);
        let mut rng2 = SeedRng::new(7);
        assert_eq!(
            trace,
            dev2.power_trace(SimDuration::from_secs(120), &mut rng2)
        );
    }

    #[test]
    fn power_trace_with_ample_harvest_stays_on() {
        let mut dev = device(1e-3);
        let mut rng = SeedRng::new(8);
        let trace = dev.power_trace(SimDuration::from_secs(30), &mut rng);
        // Initial state plus at most one turn-on edge.
        assert!(trace.len() <= 2, "{trace:?}");
        assert!(trace.last().unwrap().1, "device should end up on");
    }

    #[test]
    fn task_validation() {
        assert!(Task::new(0, 1, Joule::new(1e-6), Joule::new(1e-6)).is_err());
        assert!(Task::new(1, 0, Joule::new(1e-6), Joule::new(1e-6)).is_err());
        assert!(Task::new(1, 1, Joule::new(0.0), Joule::new(1e-6)).is_err());
        assert!(Task::new(1, 1, Joule::new(1e-6), Joule::new(0.0)).is_err());
    }

    #[test]
    fn zero_step_duration_rejected() {
        let r = IntermittentDevice::new(
            ConstantSource::new(Watt::new(1e-6)).unwrap(),
            Capacitor::new(100e-6, 2.4, 1.8, 3.0).unwrap(),
            PowerProfile::backscatter_tag().unwrap(),
            SimDuration::ZERO,
        );
        assert!(r.is_err());
    }
}
