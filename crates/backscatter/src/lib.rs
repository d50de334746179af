//! # zeiot-backscatter
//!
//! Ambient backscatter PHY and the WLAN-coexistence MAC protocol of the
//! paper's §IV.A (ref \[64\], Alim et al., WiMob 2017).
//!
//! An ambient backscatter tag cannot generate a carrier: it modulates a
//! passing signal (a Wi-Fi frame, or a dedicated continuous wave) by
//! switching its antenna impedance, at ~10 µW. The consequences this
//! crate models:
//!
//! - [`phy`] — link-level behaviour: double path loss, tag reflection
//!   loss, receiver self-interference cancellation, SNR → PER, range and
//!   throughput analysis (experiment E7);
//! - [`registry`] — the \[64\] protocol's registration step: every IoT
//!   device declares its data-acquisition cycle to the access point,
//!   which admission-controls by band-occupation time;
//! - [`mac`] — the scheduled MAC and the naive-coexistence baseline,
//!   simulated on the `zeiot-sim` engine: grants placed in WLAN gaps,
//!   dummy carrier frames when WLAN traffic is too thin, versus tags
//!   opportunistically riding (and corrupting) live WLAN frames
//!   (experiment E3). [`simulate`] runs it plain; [`simulate_with`] adds
//!   grant-loss and AP-reset faults and an optional `zeiot-obs` recorder
//!   and tracer.
//!
//! # Example: why coexistence needs a schedule
//!
//! ```
//! # fn main() -> Result<(), zeiot_core::ConfigError> {
//! use zeiot_backscatter::mac::{MacConfig, MacMode, simulate};
//! use zeiot_core::time::SimDuration;
//! use zeiot_core::rng::SeedRng;
//!
//! let config = MacConfig::default_with_devices(8)?;
//! let sched = simulate(&config, MacMode::Scheduled, SimDuration::from_secs(20), &mut SeedRng::new(1));
//! let naive = simulate(&config, MacMode::Naive, SimDuration::from_secs(20), &mut SeedRng::new(1));
//! assert!(sched.backscatter_delivery_ratio() > naive.backscatter_delivery_ratio());
//! assert!(sched.wlan_delivery_ratio() >= naive.wlan_delivery_ratio());
//! # Ok(())
//! # }
//! ```

pub mod mac;
pub mod phy;
pub mod registry;

pub use mac::{simulate, simulate_with, MacConfig, MacFaults, MacMode, MacReport};
pub use phy::BackscatterLink;
pub use registry::{CycleRegistry, Registration};
