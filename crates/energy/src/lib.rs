//! # zeiot-energy
//!
//! The zero-energy device model: how a battery-less IoT device harvests,
//! stores and spends energy.
//!
//! The paper's core premise (§I, §III.A) is that sensing costs µW, but
//! conventional radio costs tens–hundreds of mW, while backscatter costs
//! ~10 µW — a factor of ~1/10,000 — so energy-harvesting devices can only
//! communicate by backscatter. This crate provides:
//!
//! - [`harvester`] — harvest sources: constant, solar (diurnal),
//!   vibration (bursty); and the RF rectifier that converts a received
//!   power level;
//! - [`capacitor`] — the storage element with turn-on/turn-off hysteresis;
//! - [`consumer`] — per-state power draw profiles and task energy costs;
//! - [`intermittent`] — intermittent execution: a device that computes in
//!   bursts between power failures, with checkpointing.
//!
//! # Example: can a tag afford to backscatter?
//!
//! ```
//! # fn main() -> Result<(), zeiot_core::ConfigError> {
//! use zeiot_energy::capacitor::Capacitor;
//! use zeiot_core::units::{Joule, Watt};
//! use zeiot_core::time::SimDuration;
//!
//! let mut cap = Capacitor::new(47e-6, 2.4, 1.8, 3.0)?; // 47 µF
//! // 50 µW harvested for 3 s exceeds the 135 µJ turn-on level.
//! cap.charge(Watt::new(50e-6), SimDuration::from_secs(3));
//! assert!(cap.is_on());
//! // One backscatter transmission at 10 µW for 4 ms:
//! let cost = Watt::new(10e-6).energy_over(SimDuration::from_millis(4));
//! assert!(cap.try_discharge(cost));
//! # Ok(())
//! # }
//! ```

pub mod capacitor;
pub mod consumer;
pub mod harvester;
pub mod intermittent;

pub use capacitor::Capacitor;
pub use consumer::{DeviceState, PowerProfile};
pub use harvester::{ConstantSource, HarvestSource, RfHarvester, SolarSource, VibrationSource};
pub use intermittent::{IntermittentDevice, IntermittentOutcome, Task};
