//! End-to-end link budgets.
//!
//! [`LinkBudget`] composes transmit power, antenna gains and a path-loss
//! model for a conventional (actively transmitting) link. A backscatter
//! link is fundamentally different — the tag does not generate a carrier,
//! it reflects one — so its budget ([`BackscatterBudget`]) suffers *two*
//! propagation legs (exciter → tag, tag → receiver) plus a reflection /
//! modulation loss at the tag. This double path loss is why backscatter
//! range is so much shorter than active radio at the same exciter power,
//! and why the paper's §IV.A testbed places the carrier source close to
//! the tags.

use crate::noise::NoiseModel;
use crate::pathloss::PathLoss;
use zeiot_core::error::{require_non_negative, ConfigError, Result};
use zeiot_core::units::{Dbm, Decibel, Hertz};

/// A conventional active-radio link budget.
///
/// Build with [`LinkBudget::builder`]. See the crate-level example.
#[derive(Debug, Clone)]
pub struct LinkBudget<P> {
    tx_power: Dbm,
    tx_gain: Decibel,
    rx_gain: Decibel,
    frequency: Hertz,
    path_loss: P,
}

impl<P: PathLoss> LinkBudget<P> {
    /// Starts building a link budget.
    pub fn builder() -> LinkBudgetBuilder<P> {
        LinkBudgetBuilder::new()
    }

    /// The configured transmit power.
    pub fn tx_power(&self) -> Dbm {
        self.tx_power
    }

    /// The carrier frequency.
    pub fn frequency(&self) -> Hertz {
        self.frequency
    }

    /// The underlying path-loss model.
    pub fn path_loss_model(&self) -> &P {
        &self.path_loss
    }

    /// Mean received power over `distance_m` metres (no fading).
    pub fn received_power(&self, distance_m: f64) -> Dbm {
        self.tx_power + self.tx_gain + self.rx_gain - self.path_loss.loss(distance_m)
    }

    /// Mean SNR at `distance_m` against a noise model.
    pub fn snr(&self, distance_m: f64, noise: &NoiseModel) -> Decibel {
        noise.snr(self.received_power(distance_m))
    }

    /// The greatest distance at which the mean received power stays at or
    /// above `sensitivity`, found by bisection up to `max_distance_m`.
    /// Returns `None` if even the reference distance cannot meet it.
    pub fn max_range_m(&self, sensitivity: Dbm, max_distance_m: f64) -> Option<f64> {
        let ref_d = self.path_loss.reference_distance_m();
        if self.received_power(ref_d) < sensitivity {
            return None;
        }
        if self.received_power(max_distance_m) >= sensitivity {
            return Some(max_distance_m);
        }
        let (mut lo, mut hi) = (ref_d, max_distance_m);
        for _ in 0..100 {
            let mid = (lo + hi) / 2.0;
            if self.received_power(mid) >= sensitivity {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }
}

/// Builder for [`LinkBudget`].
#[derive(Debug, Clone)]
pub struct LinkBudgetBuilder<P> {
    tx_power: Option<Dbm>,
    tx_gain: Decibel,
    rx_gain: Decibel,
    frequency: Option<Hertz>,
    path_loss: Option<P>,
}

impl<P: PathLoss> LinkBudgetBuilder<P> {
    fn new() -> Self {
        Self {
            tx_power: None,
            tx_gain: Decibel::new(0.0),
            rx_gain: Decibel::new(0.0),
            frequency: None,
            path_loss: None,
        }
    }

    /// Sets the transmit power (required).
    pub fn tx_power(mut self, power: Dbm) -> Self {
        self.tx_power = Some(power);
        self
    }

    /// Sets the transmitter antenna gain (default 0 dBi).
    pub fn tx_gain(mut self, gain: Decibel) -> Self {
        self.tx_gain = gain;
        self
    }

    /// Sets the receiver antenna gain (default 0 dBi).
    pub fn rx_gain(mut self, gain: Decibel) -> Self {
        self.rx_gain = gain;
        self
    }

    /// Sets the carrier frequency (required).
    pub fn frequency(mut self, frequency: Hertz) -> Self {
        self.frequency = Some(frequency);
        self
    }

    /// Sets the path-loss model (required).
    pub fn path_loss(mut self, model: P) -> Self {
        self.path_loss = Some(model);
        self
    }

    /// Finishes the budget.
    ///
    /// # Errors
    ///
    /// Returns an error if transmit power, frequency or path-loss model is
    /// missing, or the frequency is not positive.
    pub fn build(self) -> Result<LinkBudget<P>> {
        let tx_power = self
            .tx_power
            .ok_or_else(|| ConfigError::new("tx_power", "is required"))?;
        let frequency = self
            .frequency
            .ok_or_else(|| ConfigError::new("frequency", "is required"))?;
        if frequency.value() <= 0.0 {
            return Err(ConfigError::new("frequency", "must be positive"));
        }
        let path_loss = self
            .path_loss
            .ok_or_else(|| ConfigError::new("path_loss", "is required"))?;
        Ok(LinkBudget {
            tx_power,
            tx_gain: self.tx_gain,
            rx_gain: self.rx_gain,
            frequency,
            path_loss,
        })
    }
}

/// A backscatter link budget: exciter → tag → receiver.
///
/// The received backscattered power is
/// `P_rx = P_exciter − L(d_exciter→tag) − L_tag − L(d_tag→rx)` where
/// `L_tag` bundles reflection efficiency and modulation loss (≈ 6–12 dB
/// for a simple RF-switch tag).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), zeiot_core::ConfigError> {
/// use zeiot_rf::link::BackscatterBudget;
/// use zeiot_rf::pathloss::LogDistance;
/// use zeiot_core::units::{Dbm, Decibel};
///
/// let bb = BackscatterBudget::new(
///     Dbm::new(20.0),                      // Wi-Fi AP exciter
///     LogDistance::open_hall_2_4ghz()?,
///     Decibel::new(8.0),                   // tag reflection loss
/// )?;
/// // Tag 2 m from the exciter, receiver 5 m from the tag.
/// let rx = bb.received_power(2.0, 5.0);
/// assert!(rx.value() < -40.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BackscatterBudget<P> {
    exciter_power: Dbm,
    path_loss: P,
    tag_loss: Decibel,
}

impl<P: PathLoss> BackscatterBudget<P> {
    /// Creates a backscatter budget.
    ///
    /// # Errors
    ///
    /// Returns an error if `tag_loss` is negative (a passive tag cannot
    /// amplify).
    pub fn new(exciter_power: Dbm, path_loss: P, tag_loss: Decibel) -> Result<Self> {
        require_non_negative("tag_loss", tag_loss.value())?;
        Ok(Self {
            exciter_power,
            path_loss,
            tag_loss,
        })
    }

    /// The exciter transmit power.
    pub fn exciter_power(&self) -> Dbm {
        self.exciter_power
    }

    /// The tag reflection/modulation loss.
    pub fn tag_loss(&self) -> Decibel {
        self.tag_loss
    }

    /// Power arriving at the tag (relevant for RF energy harvesting).
    pub fn power_at_tag(&self, exciter_to_tag_m: f64) -> Dbm {
        self.exciter_power - self.path_loss.loss(exciter_to_tag_m)
    }

    /// Backscattered power arriving at the receiver.
    pub fn received_power(&self, exciter_to_tag_m: f64, tag_to_rx_m: f64) -> Dbm {
        self.power_at_tag(exciter_to_tag_m) - self.tag_loss - self.path_loss.loss(tag_to_rx_m)
    }

    /// The self-interference the receiver sees directly from the exciter
    /// (the dominant interferer a backscatter receiver must reject,
    /// motivating the full-duplex cancellation in paper §IV.A).
    pub fn direct_interference(&self, exciter_to_rx_m: f64) -> Dbm {
        self.exciter_power - self.path_loss.loss(exciter_to_rx_m)
    }

    /// SINR of the backscatter signal after the receiver cancels
    /// `cancellation` dB of the direct exciter leakage.
    pub fn sinr_after_cancellation(
        &self,
        exciter_to_tag_m: f64,
        tag_to_rx_m: f64,
        exciter_to_rx_m: f64,
        cancellation: Decibel,
        noise: &NoiseModel,
    ) -> Decibel {
        let signal = self.received_power(exciter_to_tag_m, tag_to_rx_m);
        let residual = self.direct_interference(exciter_to_rx_m) - cancellation;
        let snr = noise.snr(signal);
        let inr = noise.snr(residual);
        crate::ber::sinr(snr, inr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pathloss::{FreeSpace, LogDistance};

    fn budget() -> LinkBudget<LogDistance> {
        LinkBudget::builder()
            .tx_power(Dbm::new(0.0))
            .frequency(Hertz::from_ghz(2.4))
            .path_loss(LogDistance::indoor_2_4ghz().unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn builder_requires_mandatory_fields() {
        let missing_power: Result<LinkBudget<LogDistance>> = LinkBudget::builder()
            .frequency(Hertz::from_ghz(2.4))
            .path_loss(LogDistance::indoor_2_4ghz().unwrap())
            .build();
        assert!(missing_power.is_err());

        let missing_freq: Result<LinkBudget<LogDistance>> = LinkBudget::builder()
            .tx_power(Dbm::new(0.0))
            .path_loss(LogDistance::indoor_2_4ghz().unwrap())
            .build();
        assert!(missing_freq.is_err());

        let missing_pl: Result<LinkBudget<LogDistance>> = LinkBudget::builder()
            .tx_power(Dbm::new(0.0))
            .frequency(Hertz::from_ghz(2.4))
            .build();
        assert!(missing_pl.is_err());
    }

    #[test]
    fn received_power_decreases_with_distance() {
        let b = budget();
        assert!(b.received_power(1.0) > b.received_power(10.0));
        assert!(b.received_power(10.0) > b.received_power(100.0));
    }

    #[test]
    fn antenna_gains_add_up() {
        let base = budget();
        let boosted = LinkBudget::builder()
            .tx_power(Dbm::new(0.0))
            .tx_gain(Decibel::new(3.0))
            .rx_gain(Decibel::new(2.0))
            .frequency(Hertz::from_ghz(2.4))
            .path_loss(LogDistance::indoor_2_4ghz().unwrap())
            .build()
            .unwrap();
        let delta = boosted.received_power(10.0).value() - base.received_power(10.0).value();
        assert!((delta - 5.0).abs() < 1e-9);
    }

    #[test]
    fn snr_consistent_with_noise_model() {
        let b = budget();
        let n = NoiseModel::ieee802154().unwrap();
        let snr = b.snr(5.0, &n);
        let manual = b.received_power(5.0) - n.floor();
        assert!((snr.value() - manual.value()).abs() < 1e-9);
    }

    #[test]
    fn max_range_is_consistent() {
        let b = budget();
        let sens = Dbm::new(-85.0);
        let range = b.max_range_m(sens, 1_000.0).unwrap();
        assert!(b.received_power(range).value() >= sens.value() - 0.01);
        assert!(b.received_power(range * 1.1).value() < sens.value());
    }

    #[test]
    fn max_range_none_when_unreachable() {
        let weak = LinkBudget::builder()
            .tx_power(Dbm::new(-100.0))
            .frequency(Hertz::from_ghz(2.4))
            .path_loss(LogDistance::indoor_2_4ghz().unwrap())
            .build()
            .unwrap();
        assert!(weak.max_range_m(Dbm::new(-85.0), 1_000.0).is_none());
    }

    #[test]
    fn backscatter_suffers_double_path_loss() {
        let pl = FreeSpace::new(Hertz::from_ghz(2.4));
        let active = LinkBudget::builder()
            .tx_power(Dbm::new(20.0))
            .frequency(Hertz::from_ghz(2.4))
            .path_loss(pl)
            .build()
            .unwrap();
        let bb = BackscatterBudget::new(Dbm::new(20.0), pl, Decibel::new(0.0)).unwrap();
        // Same total 10 m "distance": active direct vs 5 m + 5 m reflected.
        let direct = active.received_power(10.0);
        let reflected = bb.received_power(5.0, 5.0);
        assert!(
            reflected.value() < direct.value() - 20.0,
            "double path loss should cost dearly: direct={direct}, reflected={reflected}"
        );
    }

    #[test]
    fn backscatter_rejects_negative_tag_loss() {
        let pl = FreeSpace::new(Hertz::from_ghz(2.4));
        assert!(BackscatterBudget::new(Dbm::new(20.0), pl, Decibel::new(-1.0)).is_err());
    }

    #[test]
    fn cancellation_improves_sinr() {
        let pl = LogDistance::open_hall_2_4ghz().unwrap();
        let bb = BackscatterBudget::new(Dbm::new(20.0), pl, Decibel::new(8.0)).unwrap();
        let noise = NoiseModel::ieee80211_20mhz().unwrap();
        let weak = bb.sinr_after_cancellation(2.0, 5.0, 6.0, Decibel::new(20.0), &noise);
        let strong = bb.sinr_after_cancellation(2.0, 5.0, 6.0, Decibel::new(80.0), &noise);
        assert!(strong.value() > weak.value() + 10.0);
    }

    #[test]
    fn power_at_tag_supports_harvesting_analysis() {
        let pl = FreeSpace::new(Hertz::from_ghz(2.4));
        let bb = BackscatterBudget::new(Dbm::new(30.0), pl, Decibel::new(8.0)).unwrap();
        // 1 m from a 1 W exciter the tag sees about -10 dBm.
        let at_tag = bb.power_at_tag(1.0);
        assert!((at_tag.value() - (30.0 - 40.05)).abs() < 0.1);
    }
}
