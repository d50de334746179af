//! Bit- and packet-error models per modulation.
//!
//! The MAC experiments (E3) and link-range experiments (E7) need the
//! mapping SNR → BER → PER for the modulations the paper's systems use:
//! 802.15.4 O-QPSK with DSSS spreading gain, 802.11b DSSS, 802.11g OFDM
//! BPSK/QPSK, and the non-coherent OOK that simple backscatter tags
//! implement by switching antenna impedance.

use zeiot_core::error::{require_nonzero_usize, Result};
use zeiot_core::units::Decibel;

/// Complementary error function (Abramowitz & Stegun 7.1.26, max abs error
/// 1.5e-7) — `std` does not expose `erfc`.
pub fn erfc(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x_abs = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x_abs);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-x_abs * x_abs).exp();
    1.0 - sign * erf
}

/// The Gaussian Q-function `Q(x) = erfc(x/√2)/2`.
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Modulation schemes used across the paper's systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// Coherent BPSK (802.11g OFDM lowest rate, per-subcarrier).
    Bpsk,
    /// Coherent QPSK.
    Qpsk,
    /// IEEE 802.15.4 O-QPSK with direct-sequence spreading (2 Mchip/s,
    /// 250 kbit/s): QPSK BER evaluated at SNR boosted by the ~9 dB
    /// spreading gain. The paper (§IV.A) picks 802.15.4 for backscatter
    /// exactly because of this gain.
    OqpskDsss802154,
    /// Non-coherent on-off keying, the modulation a minimal backscatter
    /// tag realizes by toggling its RF switch.
    NonCoherentOok,
}

impl Modulation {
    /// Bit error probability at the given SNR (per-bit, AWGN).
    pub fn ber(&self, snr: Decibel) -> f64 {
        let gamma = snr.to_linear();
        let ber = match self {
            Modulation::Bpsk => q_function((2.0 * gamma).sqrt()),
            Modulation::Qpsk => q_function(gamma.sqrt()),
            Modulation::OqpskDsss802154 => {
                // 8x chip spreading ≈ 9 dB processing gain.
                let spread = gamma * 8.0;
                q_function(spread.sqrt())
            }
            Modulation::NonCoherentOok => 0.5 * (-gamma / 2.0).exp(),
        };
        ber.clamp(0.0, 0.5)
    }

    /// Nominal data rate in bits per second, used for airtime accounting.
    pub fn bit_rate_bps(&self) -> f64 {
        match self {
            Modulation::Bpsk => 6.0e6,
            Modulation::Qpsk => 12.0e6,
            Modulation::OqpskDsss802154 => 250.0e3,
            Modulation::NonCoherentOok => 50.0e3,
        }
    }
}

/// Maps BER to packet error rate for a packet of `payload_bits` assuming
/// independent bit errors (standard for AWGN-level analysis).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), zeiot_core::ConfigError> {
/// use zeiot_rf::ber::{Modulation, PacketErrorModel};
/// use zeiot_core::units::Decibel;
///
/// let model = PacketErrorModel::new(Modulation::OqpskDsss802154, 1024)?;
/// let good = model.per(Decibel::new(10.0));
/// let bad = model.per(Decibel::new(-5.0));
/// assert!(good < 0.01);
/// assert!(bad > 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketErrorModel {
    modulation: Modulation,
    payload_bits: usize,
}

impl PacketErrorModel {
    /// Creates a PER model for packets of `payload_bits` bits.
    ///
    /// # Errors
    ///
    /// Returns an error if `payload_bits` is zero.
    pub fn new(modulation: Modulation, payload_bits: usize) -> Result<Self> {
        let payload_bits = require_nonzero_usize("payload_bits", payload_bits)?;
        Ok(Self {
            modulation,
            payload_bits,
        })
    }

    /// The modulation this model assumes.
    pub fn modulation(&self) -> Modulation {
        self.modulation
    }

    /// The packet length in bits.
    pub fn payload_bits(&self) -> usize {
        self.payload_bits
    }

    /// Packet error rate at the given SNR.
    pub fn per(&self, snr: Decibel) -> f64 {
        let ber = self.modulation.ber(snr);
        1.0 - (1.0 - ber).powi(self.payload_bits as i32)
    }
}

/// Effective SNR degradation caused by interference: adds the interferer
/// power to the noise (SINR). Inputs are linear ratios relative to the
/// same noise floor.
///
/// # Panics
///
/// Panics if `snr_db` or `inr_db` values are not finite.
pub fn sinr(snr_db: Decibel, interference_to_noise_db: Decibel) -> Decibel {
    let s = snr_db.to_linear();
    let i = interference_to_noise_db.to_linear();
    assert!(s.is_finite() && i.is_finite(), "non-finite SINR inputs");
    Decibel::from_linear((s / (1.0 + i)).max(1e-12))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_known_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(2.0) - 0.004_677_7).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
    }

    #[test]
    fn q_function_known_values() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-9);
        assert!((q_function(1.0) - 0.158_655).abs() < 1e-5);
        assert!((q_function(3.0) - 0.001_349_9).abs() < 1e-6);
    }

    #[test]
    fn bpsk_ber_at_reference_points() {
        // BPSK: BER = Q(sqrt(2γ)). At Eb/N0 = 9.6 dB, BER ≈ 1e-5.
        let ber = Modulation::Bpsk.ber(Decibel::new(9.6));
        assert!(ber < 2e-5 && ber > 2e-6, "ber={ber}");
    }

    #[test]
    fn dsss_outperforms_plain_qpsk() {
        for snr in [-5.0, 0.0, 5.0] {
            let d = Decibel::new(snr);
            assert!(Modulation::OqpskDsss802154.ber(d) < Modulation::Qpsk.ber(d));
        }
    }

    #[test]
    fn ook_is_worst_at_moderate_snr() {
        let d = Decibel::new(8.0);
        let ook = Modulation::NonCoherentOok.ber(d);
        let bpsk = Modulation::Bpsk.ber(d);
        assert!(ook > bpsk);
    }

    #[test]
    fn ber_is_monotone_decreasing_in_snr() {
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::OqpskDsss802154,
            Modulation::NonCoherentOok,
        ] {
            let mut prev = 1.0;
            for snr_db in -20..30 {
                let ber = m.ber(Decibel::new(snr_db as f64));
                assert!(ber <= prev + 1e-12, "{m:?} at {snr_db}");
                prev = ber;
            }
        }
    }

    #[test]
    fn per_increases_with_packet_length() {
        let short = PacketErrorModel::new(Modulation::Qpsk, 128).unwrap();
        let long = PacketErrorModel::new(Modulation::Qpsk, 8_192).unwrap();
        let snr = Decibel::new(8.0);
        assert!(long.per(snr) > short.per(snr));
    }

    #[test]
    fn per_bounds() {
        let m = PacketErrorModel::new(Modulation::Bpsk, 1_000).unwrap();
        assert!(m.per(Decibel::new(30.0)) < 1e-9);
        assert!(m.per(Decibel::new(-20.0)) > 0.999);
    }

    #[test]
    fn sinr_reduces_effective_snr() {
        let clean = sinr(Decibel::new(20.0), Decibel::new(-30.0));
        let jammed = sinr(Decibel::new(20.0), Decibel::new(20.0));
        assert!((clean.value() - 20.0).abs() < 0.01);
        assert!(jammed.value() < 0.1);
    }

    #[test]
    fn zero_length_packets_rejected() {
        assert!(PacketErrorModel::new(Modulation::Bpsk, 0).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn ber_in_valid_range(snr in -40.0f64..40.0) {
            for m in [
                Modulation::Bpsk,
                Modulation::Qpsk,
                Modulation::OqpskDsss802154,
                Modulation::NonCoherentOok,
            ] {
                let ber = m.ber(Decibel::new(snr));
                prop_assert!((0.0..=0.5).contains(&ber));
            }
        }

        #[test]
        fn per_monotone_in_snr(
            s1 in -20.0f64..30.0,
            s2 in -20.0f64..30.0,
            bits in 1usize..10_000,
        ) {
            let m = PacketErrorModel::new(Modulation::Qpsk, bits).unwrap();
            let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
            prop_assert!(m.per(Decibel::new(hi)) <= m.per(Decibel::new(lo)) + 1e-12);
        }

        #[test]
        fn erfc_complements(x in -4.0f64..4.0) {
            // erfc(x) + erfc(-x) = 2.
            prop_assert!((erfc(x) + erfc(-x) - 2.0).abs() < 1e-6);
        }
    }
}
