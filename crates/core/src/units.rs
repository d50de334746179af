//! Physical units with checked conversions.
//!
//! Link budgets mix logarithmic (dBm, dB) and linear (mW, W) power scales;
//! the energy model needs joules; PHY models need hertz. Newtypes keep those
//! scales from being confused (a classic source of silent RF-simulation
//! bugs: adding two dBm values as if they were linear).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Power on the logarithmic dBm scale (decibels relative to 1 mW).
///
/// `Dbm` supports adding/subtracting [`Decibel`] gains and losses, which is
/// how link budgets compose; adding two `Dbm` values directly is
/// intentionally not provided.
///
/// # Example
///
/// ```
/// use zeiot_core::units::{Dbm, Decibel};
/// let tx = Dbm::new(20.0);              // 100 mW transmitter
/// let rx = tx - Decibel::new(60.0);     // 60 dB path loss
/// assert_eq!(rx.value(), -40.0);
/// assert!((rx.to_milliwatt().value() - 1e-4).abs() < 1e-16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Dbm(f64);

impl Dbm {
    /// Wraps a power level in dBm.
    pub const fn new(dbm: f64) -> Self {
        Self(dbm)
    }

    /// The raw dBm value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to linear milliwatts.
    pub fn to_milliwatt(self) -> MilliWatt {
        MilliWatt::new(10f64.powf(self.0 / 10.0))
    }

    /// Converts to linear watts.
    pub fn to_watt(self) -> Watt {
        Watt::new(10f64.powf(self.0 / 10.0) * 1e-3)
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dBm", self.0)
    }
}

impl Add<Decibel> for Dbm {
    type Output = Dbm;
    fn add(self, gain: Decibel) -> Dbm {
        Dbm(self.0 + gain.0)
    }
}

impl Sub<Decibel> for Dbm {
    type Output = Dbm;
    fn sub(self, loss: Decibel) -> Dbm {
        Dbm(self.0 - loss.0)
    }
}

impl Sub<Dbm> for Dbm {
    type Output = Decibel;
    /// The ratio of two powers is a gain in dB.
    fn sub(self, other: Dbm) -> Decibel {
        Decibel(self.0 - other.0)
    }
}

impl AddAssign<Decibel> for Dbm {
    fn add_assign(&mut self, gain: Decibel) {
        self.0 += gain.0;
    }
}

impl SubAssign<Decibel> for Dbm {
    fn sub_assign(&mut self, loss: Decibel) {
        self.0 -= loss.0;
    }
}

/// A dimensionless ratio on the decibel scale: gains, losses, SNR.
///
/// # Example
///
/// ```
/// use zeiot_core::units::Decibel;
/// let snr = Decibel::new(10.0);
/// assert!((snr.to_linear() - 10.0).abs() < 1e-12);
/// assert!((Decibel::from_linear(100.0).value() - 20.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Decibel(f64);

impl Decibel {
    /// Wraps a ratio in dB.
    pub const fn new(db: f64) -> Self {
        Self(db)
    }

    /// The raw dB value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts this dB ratio to a linear power ratio.
    pub fn to_linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Creates a dB ratio from a linear power ratio.
    ///
    /// # Panics
    ///
    /// Panics if `linear` is not strictly positive.
    pub fn from_linear(linear: f64) -> Self {
        assert!(linear > 0.0, "linear ratio must be positive, got {linear}");
        Self(10.0 * linear.log10())
    }
}

impl fmt::Display for Decibel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dB", self.0)
    }
}

impl Add for Decibel {
    type Output = Decibel;
    fn add(self, other: Decibel) -> Decibel {
        Decibel(self.0 + other.0)
    }
}

impl Sub for Decibel {
    type Output = Decibel;
    fn sub(self, other: Decibel) -> Decibel {
        Decibel(self.0 - other.0)
    }
}

impl Neg for Decibel {
    type Output = Decibel;
    fn neg(self) -> Decibel {
        Decibel(-self.0)
    }
}

impl Sum for Decibel {
    fn sum<I: Iterator<Item = Decibel>>(iter: I) -> Decibel {
        Decibel(iter.map(|d| d.0).sum())
    }
}

macro_rules! define_linear_unit {
    ($(#[$meta:meta])* $name:ident, $suffix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        pub struct $name(f64);

        impl $name {
            /// Wraps a raw value.
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// The raw value.
            pub const fn value(self) -> f64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!("{:.4} ", $suffix), self.0)
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, other: $name) -> $name {
                $name(self.0 + other.0)
            }
        }

        impl Sub for $name {
            type Output = $name;
            fn sub(self, other: $name) -> $name {
                $name(self.0 - other.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            fn mul(self, k: f64) -> $name {
                $name(self.0 * k)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            fn div(self, k: f64) -> $name {
                $name(self.0 / k)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, other: $name) {
                self.0 += other.0;
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, other: $name) {
                self.0 -= other.0;
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|v| v.0).sum())
            }
        }
    };
}

define_linear_unit!(
    /// Power in linear milliwatts.
    ///
    /// # Example
    ///
    /// ```
    /// use zeiot_core::units::MilliWatt;
    /// let p = MilliWatt::new(100.0);
    /// assert!((p.to_dbm().value() - 20.0).abs() < 1e-12);
    /// ```
    MilliWatt,
    "mW"
);

define_linear_unit!(
    /// Power in linear watts.
    Watt,
    "W"
);

define_linear_unit!(
    /// Energy in joules.
    ///
    /// # Example
    ///
    /// ```
    /// use zeiot_core::units::{Joule, Watt};
    /// use zeiot_core::time::SimDuration;
    /// let e = Watt::new(0.5).energy_over(SimDuration::from_secs_f64(2.0));
    /// assert!((e.value() - 1.0).abs() < 1e-9);
    /// ```
    Joule,
    "J"
);

define_linear_unit!(
    /// Frequency in hertz.
    Hertz,
    "Hz"
);

impl MilliWatt {
    /// Converts to the logarithmic dBm scale.
    ///
    /// # Panics
    ///
    /// Panics if the power is not strictly positive (zero power has no dBm
    /// representation).
    pub fn to_dbm(self) -> Dbm {
        assert!(self.0 > 0.0, "power must be positive to convert to dBm");
        Dbm(10.0 * self.0.log10())
    }

    /// Converts to watts.
    pub fn to_watt(self) -> Watt {
        Watt(self.0 * 1e-3)
    }
}

impl Watt {
    /// Converts to milliwatts.
    pub fn to_milliwatt(self) -> MilliWatt {
        MilliWatt(self.0 * 1e3)
    }

    /// Converts to dBm.
    ///
    /// # Panics
    ///
    /// Panics if the power is not strictly positive.
    pub fn to_dbm(self) -> Dbm {
        self.to_milliwatt().to_dbm()
    }

    /// Energy drawn at this power over `duration`.
    pub fn energy_over(self, duration: crate::time::SimDuration) -> Joule {
        Joule(self.0 * duration.as_secs_f64())
    }
}

impl Joule {
    /// Creates energy from microjoules.
    pub fn from_microjoules(uj: f64) -> Self {
        Self(uj * 1e-6)
    }
}

impl Hertz {
    /// Creates a frequency from megahertz.
    pub fn from_mhz(mhz: f64) -> Self {
        Self(mhz * 1e6)
    }

    /// Creates a frequency from gigahertz.
    pub fn from_ghz(ghz: f64) -> Self {
        Self(ghz * 1e9)
    }

    /// Free-space wavelength in metres for this carrier frequency.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is not strictly positive.
    pub fn wavelength_m(self) -> f64 {
        assert!(self.0 > 0.0, "frequency must be positive");
        299_792_458.0 / self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn dbm_milliwatt_round_trip() {
        for dbm in [-90.0, -40.0, 0.0, 10.0, 30.0] {
            let p = Dbm::new(dbm);
            let back = p.to_milliwatt().to_dbm();
            assert!((back.value() - dbm).abs() < 1e-9, "{dbm}");
        }
    }

    #[test]
    fn link_budget_composition() {
        let tx = Dbm::new(20.0);
        let gains = Decibel::new(2.0) + Decibel::new(3.0);
        let rx = tx + gains - Decibel::new(70.0);
        assert!((rx.value() - (-45.0)).abs() < 1e-12);
    }

    #[test]
    fn dbm_difference_is_decibel() {
        let g = Dbm::new(-30.0) - Dbm::new(-60.0);
        assert_eq!(g.value(), 30.0);
        assert!((g.to_linear() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn decibel_linear_round_trip() {
        for db in [-30.0, -3.0, 0.0, 3.0, 30.0] {
            let lin = Decibel::new(db).to_linear();
            assert!((Decibel::from_linear(lin).value() - db).abs() < 1e-9);
        }
    }

    #[test]
    fn decibel_sum_over_iterator() {
        let total: Decibel = [1.0, 2.0, 3.0].into_iter().map(Decibel::new).sum();
        assert_eq!(total.value(), 6.0);
    }

    #[test]
    fn watt_milliwatt_conversions() {
        let w = Watt::new(0.1);
        assert!((w.to_milliwatt().value() - 100.0).abs() < 1e-12);
        assert!((w.to_dbm().value() - 20.0).abs() < 1e-9);
        assert!((MilliWatt::new(100.0).to_watt().value() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn energy_over_a_duration() {
        let d = SimDuration::from_secs_f64(10.0);
        let e = Watt::new(2.0).energy_over(d);
        assert!((e.value() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn from_microjoules_scales_to_joules() {
        let e = Joule::from_microjoules(12.5);
        assert!((e.value() - 12.5e-6).abs() < 1e-15);
    }

    #[test]
    fn wavelength_at_2_4_ghz() {
        let wl = Hertz::from_ghz(2.4).wavelength_m();
        assert!((wl - 0.12491).abs() < 1e-4);
    }

    #[test]
    #[should_panic]
    fn zero_power_has_no_dbm() {
        let _ = MilliWatt::new(0.0).to_dbm();
    }

    #[test]
    fn backscatter_power_factor_claim() {
        // Paper §I: backscatter ≈ 10 µW vs conventional radio ≈ 100 mW
        // — a factor of about 1/10,000.
        let backscatter = Watt::new(10e-6);
        let radio = MilliWatt::new(100.0).to_watt();
        let ratio = backscatter.value() / radio.value();
        assert!((ratio - 1e-4).abs() < 1e-12);
    }
}
