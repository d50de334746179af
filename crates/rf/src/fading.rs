//! Large-scale shadowing and small-scale fading.
//!
//! Shadowing models slow, position-dependent deviations from the mean path
//! loss (walls, furniture); fading models fast multipath fluctuations —
//! exactly the "radio waves fluctuation" the paper proposes to sense
//! (§III.C). All draws take an explicit RNG for determinism.

use zeiot_core::error::{require_non_negative, require_positive, Result};
use zeiot_core::rng::SeedRng;
use zeiot_core::units::Decibel;

/// A stochastic channel gain component, drawn per transmission.
///
/// Positive values are (rare) constructive gains; negative values are
/// fades.
pub trait Fading {
    /// Draws one gain realization in dB.
    fn draw(&self, rng: &mut SeedRng) -> Decibel;

    /// The mean gain in dB of this component (0 for a well-normalized
    /// model).
    fn mean_db(&self) -> f64;
}

/// Log-normal shadowing: a zero-mean Gaussian in the dB domain.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), zeiot_core::ConfigError> {
/// use zeiot_rf::fading::{Fading, LogNormalShadowing};
/// use zeiot_core::rng::SeedRng;
///
/// let sh = LogNormalShadowing::new(4.0)?;
/// let mut rng = SeedRng::new(1);
/// let g = sh.draw(&mut rng);
/// assert!(g.value().abs() < 40.0); // within 10 sigma
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormalShadowing {
    sigma_db: f64,
}

impl LogNormalShadowing {
    /// Creates a shadowing model with standard deviation `sigma_db`.
    ///
    /// # Errors
    ///
    /// Returns an error if `sigma_db` is negative or not finite.
    pub fn new(sigma_db: f64) -> Result<Self> {
        let sigma_db = require_non_negative("sigma_db", sigma_db)?;
        Ok(Self { sigma_db })
    }

    /// The dB standard deviation.
    pub fn sigma_db(&self) -> f64 {
        self.sigma_db
    }
}

impl Fading for LogNormalShadowing {
    fn draw(&self, rng: &mut SeedRng) -> Decibel {
        Decibel::new(rng.normal_with(0.0, self.sigma_db))
    }

    fn mean_db(&self) -> f64 {
        0.0
    }
}

/// Rayleigh fading: the power gain is exponential with unit mean (the
/// non-line-of-sight multipath case).
///
/// # Example
///
/// ```
/// use zeiot_rf::fading::{Fading, RayleighFading};
/// use zeiot_core::rng::SeedRng;
///
/// let fad = RayleighFading::new();
/// let mut rng = SeedRng::new(2);
/// // Mean linear power gain over many draws is ~1 (0 dB).
/// let n = 20_000;
/// let mean: f64 = (0..n)
///     .map(|_| fad.draw(&mut rng).to_linear())
///     .sum::<f64>() / n as f64;
/// assert!((mean - 1.0).abs() < 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RayleighFading;

impl RayleighFading {
    /// Creates a unit-mean Rayleigh fading model.
    pub fn new() -> Self {
        Self
    }
}

impl Fading for RayleighFading {
    fn draw(&self, rng: &mut SeedRng) -> Decibel {
        // Power gain ~ Exp(1); envelope is Rayleigh.
        let g = rng.exponential(1.0);
        Decibel::from_linear(g.max(1e-12))
    }

    fn mean_db(&self) -> f64 {
        // E[10 log10 X], X~Exp(1) = -10·γ/ln10 ≈ -2.507 dB.
        -2.506_78
    }
}

/// Rician fading with factor `K` (line-of-sight power over scattered
/// power). `K → 0` degenerates to Rayleigh; large `K` approaches a
/// deterministic channel.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), zeiot_core::ConfigError> {
/// use zeiot_rf::fading::{Fading, RicianFading};
/// use zeiot_core::rng::SeedRng;
///
/// let strong_los = RicianFading::new(20.0)?;
/// let mut rng = SeedRng::new(3);
/// // With K = 20 the channel barely fluctuates.
/// let g = strong_los.draw(&mut rng);
/// assert!(g.value().abs() < 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RicianFading {
    k_factor: f64,
}

impl RicianFading {
    /// Creates a Rician model with linear K-factor `k_factor`.
    ///
    /// # Errors
    ///
    /// Returns an error if `k_factor` is negative or not finite.
    pub fn new(k_factor: f64) -> Result<Self> {
        let k_factor = require_non_negative("k_factor", k_factor)?;
        Ok(Self { k_factor })
    }

    /// The linear K-factor.
    pub fn k_factor(&self) -> f64 {
        self.k_factor
    }
}

impl Fading for RicianFading {
    fn draw(&self, rng: &mut SeedRng) -> Decibel {
        let k = self.k_factor;
        // Complex Gaussian with LOS offset, normalized to unit mean power:
        // h = sqrt(K/(K+1)) + sqrt(1/(K+1)) * CN(0,1).
        let sigma = (1.0 / (2.0 * (k + 1.0))).sqrt();
        let los = (k / (k + 1.0)).sqrt();
        let re = los + sigma * rng.normal();
        let im = sigma * rng.normal();
        let power = re * re + im * im;
        Decibel::from_linear(power.max(1e-12))
    }

    fn mean_db(&self) -> f64 {
        0.0
    }
}

/// A time-correlated fading process: first-order Gauss–Markov evolution of
/// the dB gain, used when the channel is sampled repeatedly (e.g. RSSI
/// streams for wireless sensing).
///
/// `x[t+1] = ρ·x[t] + sqrt(1−ρ²)·σ·w`, `w ~ N(0,1)`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), zeiot_core::ConfigError> {
/// use zeiot_rf::fading::CorrelatedFading;
/// use zeiot_core::rng::SeedRng;
///
/// let mut chan = CorrelatedFading::new(0.95, 3.0)?;
/// let mut rng = SeedRng::new(4);
/// let a = chan.step(&mut rng).value();
/// let b = chan.step(&mut rng).value();
/// // Highly correlated: successive samples are close.
/// assert!((a - b).abs() < 5.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelatedFading {
    rho: f64,
    sigma_db: f64,
    state_db: f64,
}

impl CorrelatedFading {
    /// Creates a correlated fading process with one-step correlation `rho`
    /// (in `[0, 1)`) and stationary standard deviation `sigma_db`.
    ///
    /// # Errors
    ///
    /// Returns an error if `rho` is outside `[0, 1)` or `sigma_db` is not
    /// strictly positive.
    pub fn new(rho: f64, sigma_db: f64) -> Result<Self> {
        let rho = zeiot_core::error::require_in_range("rho", rho, 0.0, 1.0)?;
        if rho >= 1.0 {
            return Err(zeiot_core::error::ConfigError::new(
                "rho",
                "must be strictly below 1",
            ));
        }
        let sigma_db = require_positive("sigma_db", sigma_db)?;
        Ok(Self {
            rho,
            sigma_db,
            state_db: 0.0,
        })
    }

    /// Advances the process one sample and returns the new gain.
    pub fn step(&mut self, rng: &mut SeedRng) -> Decibel {
        let innovation = (1.0 - self.rho * self.rho).sqrt() * self.sigma_db;
        self.state_db = self.rho * self.state_db + rng.normal_with(0.0, innovation);
        Decibel::new(self.state_db)
    }

    /// The current gain without advancing.
    pub fn current(&self) -> Decibel {
        Decibel::new(self.state_db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadowing_mean_and_sigma() {
        let sh = LogNormalShadowing::new(6.0).unwrap();
        let mut rng = SeedRng::new(10);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| sh.draw(&mut rng).value()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.1, "mean={mean}");
        assert!((var.sqrt() - 6.0).abs() < 0.1, "sigma={}", var.sqrt());
    }

    #[test]
    fn shadowing_rejects_negative_sigma() {
        assert!(LogNormalShadowing::new(-1.0).is_err());
        assert!(LogNormalShadowing::new(0.0).is_ok());
    }

    #[test]
    fn rayleigh_power_is_unit_mean() {
        let fad = RayleighFading::new();
        let mut rng = SeedRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| fad.draw(&mut rng).to_linear()).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn rayleigh_db_mean_matches_theory() {
        let fad = RayleighFading::new();
        let mut rng = SeedRng::new(12);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| fad.draw(&mut rng).value()).sum::<f64>() / n as f64;
        assert!((mean - fad.mean_db()).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn rician_k0_behaves_like_rayleigh() {
        let ric = RicianFading::new(0.0).unwrap();
        let mut rng = SeedRng::new(13);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| ric.draw(&mut rng).to_linear()).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn rician_variance_shrinks_with_k() {
        let mut rng = SeedRng::new(14);
        let var_of = |k: f64, rng: &mut SeedRng| {
            let ric = RicianFading::new(k).unwrap();
            let n = 20_000;
            let samples: Vec<f64> = (0..n).map(|_| ric.draw(rng).to_linear()).collect();
            let mean = samples.iter().sum::<f64>() / n as f64;
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64
        };
        let v_low = var_of(0.5, &mut rng);
        let v_high = var_of(50.0, &mut rng);
        assert!(v_high < v_low / 5.0, "v_low={v_low} v_high={v_high}");
    }

    #[test]
    fn correlated_fading_stationary_sigma() {
        let mut chan = CorrelatedFading::new(0.9, 4.0).unwrap();
        let mut rng = SeedRng::new(15);
        // Burn in, then measure.
        for _ in 0..1_000 {
            chan.step(&mut rng);
        }
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| chan.step(&mut rng).value()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.15, "mean={mean}");
        assert!((var.sqrt() - 4.0).abs() < 0.15, "sigma={}", var.sqrt());
    }

    #[test]
    fn correlated_fading_successive_correlation() {
        let mut chan = CorrelatedFading::new(0.95, 3.0).unwrap();
        let mut rng = SeedRng::new(16);
        for _ in 0..100 {
            chan.step(&mut rng);
        }
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| chan.step(&mut rng).value()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let cov = samples
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / (n - 1) as f64;
        let rho = cov / var;
        assert!((rho - 0.95).abs() < 0.01, "rho={rho}");
    }

    #[test]
    fn correlated_fading_rejects_invalid_rho() {
        assert!(CorrelatedFading::new(1.0, 3.0).is_err());
        assert!(CorrelatedFading::new(-0.1, 3.0).is_err());
        assert!(CorrelatedFading::new(0.99, 3.0).is_ok());
    }
}
