//! Cycle registration and admission control.
//!
//! The \[64\] MAC's key observation: IoT applications "have their own
//! constant communication cycles". Each device registers its
//! data-acquisition cycle with the access point once; the AP then knows
//! the entire periodic demand and can admission-control by band
//! occupation time before scheduling.

use serde::{Deserialize, Serialize};
use zeiot_core::error::{ConfigError, Result};
use zeiot_core::id::DeviceId;
use zeiot_core::time::SimDuration;

/// One device's declared traffic pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Registration {
    /// The registering device.
    pub device: DeviceId,
    /// Data-acquisition cycle (one sample per cycle).
    pub cycle: SimDuration,
    /// Payload bits per sample.
    pub payload_bits: usize,
}

impl Registration {
    /// Creates a registration.
    ///
    /// # Errors
    ///
    /// Returns an error if the cycle is zero or the payload empty.
    pub fn new(device: DeviceId, cycle: SimDuration, payload_bits: usize) -> Result<Self> {
        if cycle.is_zero() {
            return Err(ConfigError::new("cycle", "must be non-zero"));
        }
        if payload_bits == 0 {
            return Err(ConfigError::new("payload_bits", "must be non-zero"));
        }
        Ok(Self {
            device,
            cycle,
            payload_bits,
        })
    }

    /// Airtime of one sample at `bit_rate_bps`.
    pub fn airtime(&self, bit_rate_bps: f64) -> SimDuration {
        assert!(bit_rate_bps > 0.0, "bit rate must be positive");
        SimDuration::from_secs_f64(self.payload_bits as f64 / bit_rate_bps)
    }

    /// Fraction of the band this device occupies at `bit_rate_bps`.
    pub fn band_occupation(&self, bit_rate_bps: f64) -> f64 {
        self.airtime(bit_rate_bps).as_secs_f64() / self.cycle.as_secs_f64()
    }
}

/// The access point's registry of periodic demands.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), zeiot_core::ConfigError> {
/// use zeiot_backscatter::registry::{CycleRegistry, Registration};
/// use zeiot_core::id::DeviceId;
/// use zeiot_core::time::SimDuration;
///
/// let mut reg = CycleRegistry::new(250e3, 0.2)?; // 250 kbps, 20 % budget
/// reg.register(Registration::new(DeviceId::new(0), SimDuration::from_millis(100), 256)?)?;
/// assert_eq!(reg.len(), 1);
/// assert!(reg.total_occupation() < 0.2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CycleRegistry {
    bit_rate_bps: f64,
    occupation_budget: f64,
    registrations: Vec<Registration>,
}

impl CycleRegistry {
    /// Creates a registry for a backscatter channel of `bit_rate_bps`,
    /// admitting devices while total occupation stays at or below
    /// `occupation_budget` (fraction of airtime reserved for backscatter).
    ///
    /// # Errors
    ///
    /// Returns an error if the rate is not positive or the budget is
    /// outside `(0, 1]`.
    pub fn new(bit_rate_bps: f64, occupation_budget: f64) -> Result<Self> {
        if !(bit_rate_bps > 0.0 && bit_rate_bps.is_finite()) {
            return Err(ConfigError::new("bit_rate_bps", "must be positive"));
        }
        if !(occupation_budget > 0.0 && occupation_budget <= 1.0) {
            return Err(ConfigError::new("occupation_budget", "must be in (0, 1]"));
        }
        Ok(Self {
            bit_rate_bps,
            occupation_budget,
            registrations: Vec::new(),
        })
    }

    /// Number of admitted devices.
    pub fn len(&self) -> usize {
        self.registrations.len()
    }

    /// Whether no devices are registered.
    pub fn is_empty(&self) -> bool {
        self.registrations.is_empty()
    }

    /// Admitted registrations.
    pub fn registrations(&self) -> &[Registration] {
        &self.registrations
    }

    /// Total band occupation of admitted devices.
    pub fn total_occupation(&self) -> f64 {
        self.registrations
            .iter()
            .map(|r| r.band_occupation(self.bit_rate_bps))
            .sum()
    }

    /// Attempts to admit a registration.
    ///
    /// # Errors
    ///
    /// Returns an error if the device is already registered or admission
    /// would exceed the occupation budget.
    pub fn register(&mut self, registration: Registration) -> Result<()> {
        if self
            .registrations
            .iter()
            .any(|r| r.device == registration.device)
        {
            return Err(ConfigError::new(
                "device",
                format!("{} already registered", registration.device),
            ));
        }
        let new_total = self.total_occupation() + registration.band_occupation(self.bit_rate_bps);
        if new_total > self.occupation_budget {
            return Err(ConfigError::new(
                "occupation",
                format!(
                    "admitting {} would use {:.3} of budget {:.3}",
                    registration.device, new_total, self.occupation_budget
                ),
            ));
        }
        self.registrations.push(registration);
        Ok(())
    }

    /// The maximum number of identical devices (same cycle/payload) this
    /// registry could admit.
    pub fn capacity_for(&self, prototype: &Registration) -> usize {
        let per = prototype.band_occupation(self.bit_rate_bps);
        if per <= 0.0 {
            return usize::MAX;
        }
        let remaining = (self.occupation_budget - self.total_occupation()).max(0.0);
        (remaining / per).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(id: u32, cycle_ms: u64, bits: usize) -> Registration {
        Registration::new(DeviceId::new(id), SimDuration::from_millis(cycle_ms), bits).unwrap()
    }

    #[test]
    fn registration_validation() {
        assert!(Registration::new(DeviceId::new(0), SimDuration::ZERO, 10).is_err());
        assert!(Registration::new(DeviceId::new(0), SimDuration::from_secs(1), 0).is_err());
    }

    #[test]
    fn airtime_and_occupation() {
        let r = reg(0, 100, 2_500); // 2500 bits @ 250 kbps = 10 ms per 100 ms
        assert_eq!(r.airtime(250e3).as_millis(), 10);
        assert!((r.band_occupation(250e3) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn admission_accepts_within_budget() {
        let mut registry = CycleRegistry::new(250e3, 0.5).unwrap();
        for i in 0..4 {
            registry.register(reg(i, 100, 2_500)).unwrap(); // 0.1 each
        }
        assert_eq!(registry.len(), 4);
        assert!((registry.total_occupation() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn admission_rejects_over_budget() {
        let mut registry = CycleRegistry::new(250e3, 0.25).unwrap();
        registry.register(reg(0, 100, 2_500)).unwrap();
        registry.register(reg(1, 100, 2_500)).unwrap();
        assert!(registry.register(reg(2, 100, 2_500)).is_err());
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn duplicate_device_rejected() {
        let mut registry = CycleRegistry::new(250e3, 0.5).unwrap();
        registry.register(reg(7, 100, 100)).unwrap();
        assert!(registry.register(reg(7, 200, 100)).is_err());
    }

    #[test]
    fn capacity_estimate() {
        let registry = CycleRegistry::new(250e3, 0.5).unwrap();
        let prototype = reg(0, 100, 2_500); // 0.1 occupation
        assert_eq!(registry.capacity_for(&prototype), 5);
    }

    #[test]
    fn registry_validation() {
        assert!(CycleRegistry::new(0.0, 0.5).is_err());
        assert!(CycleRegistry::new(250e3, 0.0).is_err());
        assert!(CycleRegistry::new(250e3, 1.5).is_err());
    }
}
