//! Energy-harvest sources, and the RF rectifier.
//!
//! Each source reports its instantaneous harvested power at a simulated
//! time; stochastic sources additionally take an RNG. Power values are
//! always non-negative. [`RfHarvester`] converts an incident power the
//! caller supplies, so it is not a source.

use zeiot_core::error::{require_in_range, require_non_negative, require_positive, Result};
use zeiot_core::rng::SeedRng;
use zeiot_core::time::SimTime;
use zeiot_core::units::{Dbm, Watt};

/// A source of harvested power.
pub trait HarvestSource {
    /// Instantaneous harvested power at `time`.
    fn power_at(&self, time: SimTime, rng: &mut SeedRng) -> Watt;

    /// Long-run mean power of this source, for budgeting.
    fn mean_power(&self) -> Watt;
}

/// A constant harvest source (e.g. a regulated test supply, or thermal
/// gradient harvesting in a stable environment).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), zeiot_core::ConfigError> {
/// use zeiot_energy::harvester::{ConstantSource, HarvestSource};
/// use zeiot_core::units::Watt;
///
/// let src = ConstantSource::new(Watt::new(20e-6))?;
/// assert_eq!(src.mean_power().value(), 20e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantSource {
    power: Watt,
}

impl ConstantSource {
    /// Creates a constant source.
    ///
    /// # Errors
    ///
    /// Returns an error if `power` is negative or not finite.
    pub fn new(power: Watt) -> Result<Self> {
        require_non_negative("power", power.value())?;
        Ok(Self { power })
    }
}

impl HarvestSource for ConstantSource {
    fn power_at(&self, _time: SimTime, _rng: &mut SeedRng) -> Watt {
        self.power
    }

    fn mean_power(&self) -> Watt {
        self.power
    }
}

/// Indoor-light / solar harvesting with a diurnal profile: zero at night,
/// a raised-cosine bump during the day, plus small fluctuation.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), zeiot_core::ConfigError> {
/// use zeiot_energy::harvester::{HarvestSource, SolarSource};
/// use zeiot_core::rng::SeedRng;
/// use zeiot_core::time::SimTime;
/// use zeiot_core::units::Watt;
///
/// let sun = SolarSource::new(Watt::new(100e-6), 6.0, 18.0)?;
/// let mut rng = SeedRng::new(1);
/// let midnight = sun.power_at(SimTime::ZERO, &mut rng);
/// let noon = sun.power_at(SimTime::from_secs(12 * 3600), &mut rng);
/// assert_eq!(midnight.value(), 0.0);
/// assert!(noon.value() > 50e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolarSource {
    peak: Watt,
    sunrise_h: f64,
    sunset_h: f64,
    jitter_fraction: f64,
}

impl SolarSource {
    /// Creates a solar source peaking at `peak` between `sunrise_h` and
    /// `sunset_h` (hours of day, 0–24).
    ///
    /// # Errors
    ///
    /// Returns an error if `peak` is negative, hours are outside `[0, 24]`
    /// or sunrise is not before sunset.
    pub fn new(peak: Watt, sunrise_h: f64, sunset_h: f64) -> Result<Self> {
        require_non_negative("peak", peak.value())?;
        let sunrise_h = require_in_range("sunrise_h", sunrise_h, 0.0, 24.0)?;
        let sunset_h = require_in_range("sunset_h", sunset_h, 0.0, 24.0)?;
        if sunrise_h >= sunset_h {
            return Err(zeiot_core::error::ConfigError::new(
                "sunrise_h",
                "must precede sunset_h",
            ));
        }
        Ok(Self {
            peak,
            sunrise_h,
            sunset_h,
            jitter_fraction: 0.05,
        })
    }

    fn hour_of_day(time: SimTime) -> f64 {
        (time.as_secs_f64() / 3600.0) % 24.0
    }
}

impl HarvestSource for SolarSource {
    fn power_at(&self, time: SimTime, rng: &mut SeedRng) -> Watt {
        let h = Self::hour_of_day(time);
        if h < self.sunrise_h || h > self.sunset_h {
            return Watt::new(0.0);
        }
        let span = self.sunset_h - self.sunrise_h;
        let phase = (h - self.sunrise_h) / span; // 0..1 across the day
        let envelope = (std::f64::consts::PI * phase).sin();
        let jitter = 1.0 + self.jitter_fraction * rng.normal();
        Watt::new((self.peak.value() * envelope * jitter).max(0.0))
    }

    fn mean_power(&self) -> Watt {
        // Mean of sin over [0, π] is 2/π; day fraction scales it.
        let day_fraction = (self.sunset_h - self.sunrise_h) / 24.0;
        Watt::new(self.peak.value() * (2.0 / std::f64::consts::PI) * day_fraction)
    }
}

/// RF energy harvesting from a received carrier (RFID-style): converts an
/// incident power at the tag with a rectifier efficiency, below a
/// sensitivity threshold nothing is harvested. It is a converter, not a
/// [`HarvestSource`]: the incident power comes from the link, per call
/// to [`RfHarvester::harvested`].
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), zeiot_core::ConfigError> {
/// use zeiot_energy::harvester::RfHarvester;
/// use zeiot_core::units::Dbm;
///
/// let h = RfHarvester::new(0.3, Dbm::new(-20.0))?;
/// // -10 dBm incident = 100 µW; at 30 % efficiency: 30 µW.
/// let p = h.harvested(Dbm::new(-10.0));
/// assert!((p.value() - 30e-6).abs() < 1e-9);
/// // Below sensitivity: zero.
/// assert_eq!(h.harvested(Dbm::new(-30.0)).value(), 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RfHarvester {
    efficiency: f64,
    sensitivity: Dbm,
}

impl RfHarvester {
    /// Creates an RF harvester with rectifier `efficiency` in `(0, 1]` and
    /// a minimum incident power `sensitivity`.
    ///
    /// # Errors
    ///
    /// Returns an error if `efficiency` is outside `(0, 1]`.
    pub fn new(efficiency: f64, sensitivity: Dbm) -> Result<Self> {
        let efficiency = require_positive("efficiency", efficiency)?;
        let efficiency = require_in_range("efficiency", efficiency, f64::MIN_POSITIVE, 1.0)?;
        Ok(Self {
            efficiency,
            sensitivity,
        })
    }

    /// Harvested power for a given incident power.
    pub fn harvested(&self, incident: Dbm) -> Watt {
        if incident < self.sensitivity {
            Watt::new(0.0)
        } else {
            Watt::new(incident.to_watt().value() * self.efficiency)
        }
    }
}

/// Bursty vibration harvesting (e.g. the spring accelerometers of paper
/// §III.C or wind on sloping lands): bursts arrive as a Poisson process;
/// during a burst the source yields its burst power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VibrationSource {
    burst_power: Watt,
    burst_rate_hz: f64,
    burst_duration_s: f64,
}

impl VibrationSource {
    /// Creates a vibration source with bursts of `burst_power` lasting
    /// `burst_duration_s`, arriving at `burst_rate_hz`.
    ///
    /// # Errors
    ///
    /// Returns an error if the power is negative or rate/duration are not
    /// strictly positive.
    pub fn new(burst_power: Watt, burst_rate_hz: f64, burst_duration_s: f64) -> Result<Self> {
        require_non_negative("burst_power", burst_power.value())?;
        let burst_rate_hz = require_positive("burst_rate_hz", burst_rate_hz)?;
        let burst_duration_s = require_positive("burst_duration_s", burst_duration_s)?;
        Ok(Self {
            burst_power,
            burst_rate_hz,
            burst_duration_s,
        })
    }

    /// The fraction of time the source is bursting (capped at 1).
    pub fn duty_cycle(&self) -> f64 {
        (self.burst_rate_hz * self.burst_duration_s).min(1.0)
    }
}

impl HarvestSource for VibrationSource {
    fn power_at(&self, _time: SimTime, rng: &mut SeedRng) -> Watt {
        if rng.chance(self.duty_cycle()) {
            self.burst_power
        } else {
            Watt::new(0.0)
        }
    }

    fn mean_power(&self) -> Watt {
        Watt::new(self.burst_power.value() * self.duty_cycle())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_source_is_constant() {
        let src = ConstantSource::new(Watt::new(5e-6)).unwrap();
        let mut rng = SeedRng::new(1);
        for s in [0u64, 100, 10_000] {
            assert_eq!(src.power_at(SimTime::from_secs(s), &mut rng).value(), 5e-6);
        }
    }

    #[test]
    fn constant_source_rejects_negative() {
        assert!(ConstantSource::new(Watt::new(-1.0)).is_err());
    }

    #[test]
    fn solar_zero_at_night_peak_at_noon() {
        let sun = SolarSource::new(Watt::new(100e-6), 6.0, 18.0).unwrap();
        let mut rng = SeedRng::new(2);
        assert_eq!(
            sun.power_at(SimTime::from_secs(3 * 3600), &mut rng).value(),
            0.0
        );
        assert_eq!(
            sun.power_at(SimTime::from_secs(22 * 3600), &mut rng)
                .value(),
            0.0
        );
        let noon = sun
            .power_at(SimTime::from_secs(12 * 3600), &mut rng)
            .value();
        assert!(noon > 80e-6, "noon={noon}");
    }

    #[test]
    fn solar_wraps_to_next_day() {
        let sun = SolarSource::new(Watt::new(100e-6), 6.0, 18.0).unwrap();
        let mut rng = SeedRng::new(3);
        let day1_noon = 12.0 * 3600.0;
        let day5_noon = day1_noon + 4.0 * 86_400.0;
        let p = sun.power_at(SimTime::from_secs_f64(day5_noon), &mut rng);
        assert!(p.value() > 50e-6);
    }

    #[test]
    fn solar_mean_power_is_plausible() {
        let sun = SolarSource::new(Watt::new(100e-6), 6.0, 18.0).unwrap();
        let mut rng = SeedRng::new(4);
        // Empirical mean over one day at 1-minute resolution.
        let samples = 24 * 60;
        let mean: f64 = (0..samples)
            .map(|i| {
                sun.power_at(SimTime::from_secs(i as u64 * 60), &mut rng)
                    .value()
            })
            .sum::<f64>()
            / samples as f64;
        assert!(
            (mean - sun.mean_power().value()).abs() < 5e-6,
            "mean={mean}"
        );
    }

    #[test]
    fn solar_rejects_inverted_day() {
        assert!(SolarSource::new(Watt::new(1e-6), 18.0, 6.0).is_err());
    }

    #[test]
    fn rf_harvester_efficiency_and_sensitivity() {
        let h = RfHarvester::new(0.25, Dbm::new(-18.0)).unwrap();
        let p = h.harvested(Dbm::new(0.0)); // 1 mW incident
        assert!((p.value() - 0.25e-3).abs() < 1e-9);
        assert_eq!(h.harvested(Dbm::new(-18.01)).value(), 0.0);
    }

    #[test]
    fn rf_harvester_rejects_bad_efficiency() {
        assert!(RfHarvester::new(0.0, Dbm::new(-20.0)).is_err());
        assert!(RfHarvester::new(1.5, Dbm::new(-20.0)).is_err());
        assert!(RfHarvester::new(-0.1, Dbm::new(-20.0)).is_err());
    }

    #[test]
    fn vibration_mean_matches_duty_cycle() {
        let v = VibrationSource::new(Watt::new(1e-3), 0.5, 0.2).unwrap();
        assert!((v.duty_cycle() - 0.1).abs() < 1e-12);
        assert!((v.mean_power().value() - 1e-4).abs() < 1e-12);
        let mut rng = SeedRng::new(6);
        let n = 100_000;
        let mean: f64 = (0..n)
            .map(|i| v.power_at(SimTime::from_secs(i as u64), &mut rng).value())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1e-4).abs() < 5e-6, "mean={mean}");
    }

    #[test]
    fn vibration_duty_cycle_capped_at_one() {
        let v = VibrationSource::new(Watt::new(1e-3), 10.0, 1.0).unwrap();
        assert_eq!(v.duty_cycle(), 1.0);
        assert_eq!(v.mean_power().value(), 1e-3);
    }
}
