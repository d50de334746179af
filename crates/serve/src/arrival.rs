//! Deterministic request-arrival generators.
//!
//! Each tenant's offered load is an [`ArrivalProcess`] materialized into
//! a concrete list of arrival instants *before* the serving loop runs.
//! The generator draws only from the `SeedRng` it is handed (the server
//! derives one per tenant with [`zeiot_core::rng::SeedRng::for_point`]),
//! so a tenant's arrival stream is a pure function of `(master seed,
//! tenant index)` — independent of the other tenants, the shard layout,
//! and the thread count of any surrounding sweep.

use zeiot_core::rng::SeedRng;
use zeiot_core::time::{SimDuration, SimTime};

/// A tenant's request-arrival model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential inter-arrival gaps at `rate_hz`.
    Poisson {
        /// Mean arrival rate in requests per second.
        rate_hz: f64,
    },
    /// Fixed-period arrivals starting at `phase`.
    Periodic {
        /// Gap between consecutive requests.
        period: SimDuration,
        /// Offset of the first request.
        phase: SimDuration,
    },
    /// On/off traffic: `burst` back-to-back requests spaced `spacing`,
    /// with exponential idle gaps of mean `mean_gap` between bursts.
    Bursts {
        /// Requests per burst.
        burst: usize,
        /// Spacing between requests inside a burst.
        spacing: SimDuration,
        /// Mean idle gap between the end of one burst and the start of
        /// the next.
        mean_gap: SimDuration,
    },
}

impl ArrivalProcess {
    /// A Poisson process at `rate_hz` requests per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz` is not finite and positive.
    pub fn poisson(rate_hz: f64) -> Self {
        // zeiot-audit: allow(p1) -- documented `# Panics` precondition guard
        assert!(
            rate_hz.is_finite() && rate_hz > 0.0,
            "rate must be positive, got {rate_hz}"
        );
        Self::Poisson { rate_hz }
    }

    /// A periodic process with the given period and zero phase.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn periodic(period: SimDuration) -> Self {
        // zeiot-audit: allow(p1) -- documented `# Panics` precondition guard
        assert!(!period.is_zero(), "period must be non-zero");
        Self::Periodic {
            period,
            phase: SimDuration::ZERO,
        }
    }

    /// A bursty process.
    ///
    /// # Panics
    ///
    /// Panics if `burst` is zero or `mean_gap` is zero.
    pub fn bursts(burst: usize, spacing: SimDuration, mean_gap: SimDuration) -> Self {
        // zeiot-audit: allow(p1) -- documented `# Panics` precondition guards
        assert!(burst > 0, "burst must be non-empty");
        assert!(!mean_gap.is_zero(), "mean gap must be non-zero");
        Self::Bursts {
            burst,
            spacing,
            mean_gap,
        }
    }

    /// The process with its offered load multiplied by `k` (rates scale
    /// up, periods and gaps scale down; burst sizes are unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `k` is not finite and positive.
    pub fn scaled(&self, k: f64) -> Self {
        // zeiot-audit: allow(p1) -- documented `# Panics` precondition guard
        assert!(k.is_finite() && k > 0.0, "load factor must be positive");
        match *self {
            Self::Poisson { rate_hz } => Self::Poisson {
                rate_hz: rate_hz * k,
            },
            Self::Periodic { period, phase } => Self::Periodic {
                period: period.mul_f64(1.0 / k),
                phase,
            },
            Self::Bursts {
                burst,
                spacing,
                mean_gap,
            } => Self::Bursts {
                burst,
                spacing,
                mean_gap: mean_gap.mul_f64(1.0 / k),
            },
        }
    }

    /// Materializes every arrival instant in `[0, horizon)`, strictly
    /// non-decreasing, drawing only from `rng`.
    pub fn arrivals(&self, horizon: SimDuration, rng: &mut SeedRng) -> Vec<SimTime> {
        let end = SimTime::ZERO + horizon;
        let mut out = Vec::new();
        match *self {
            Self::Poisson { rate_hz } => {
                let mut t = SimTime::ZERO + SimDuration::from_secs_f64(rng.exponential(rate_hz));
                while t < end {
                    out.push(t);
                    t += SimDuration::from_secs_f64(rng.exponential(rate_hz));
                }
            }
            Self::Periodic { period, phase } => {
                let mut t = SimTime::ZERO + phase;
                while t < end {
                    out.push(t);
                    t += period;
                }
            }
            Self::Bursts {
                burst,
                spacing,
                mean_gap,
            } => {
                let gap_rate = 1.0 / mean_gap.as_secs_f64();
                let mut t = SimTime::ZERO + SimDuration::from_secs_f64(rng.exponential(gap_rate));
                'outer: loop {
                    for i in 0..burst {
                        let at = t + spacing * i as u64;
                        if at >= end {
                            break 'outer;
                        }
                        out.push(at);
                    }
                    t = t
                        + spacing * burst.saturating_sub(1) as u64
                        + SimDuration::from_secs_f64(rng.exponential(gap_rate));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_reproducible_and_roughly_calibrated() {
        let horizon = SimDuration::from_secs(200);
        let a = ArrivalProcess::poisson(10.0).arrivals(horizon, &mut SeedRng::new(1));
        let b = ArrivalProcess::poisson(10.0).arrivals(horizon, &mut SeedRng::new(1));
        assert_eq!(a, b);
        // ~2000 expected; allow wide slack.
        assert!(a.len() > 1500 && a.len() < 2500, "n={}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn periodic_hits_exact_instants() {
        let arrivals = ArrivalProcess::periodic(SimDuration::from_millis(250))
            .arrivals(SimDuration::from_secs(1), &mut SeedRng::new(0));
        assert_eq!(
            arrivals,
            vec![
                SimTime::ZERO,
                SimTime::from_millis(250),
                SimTime::from_millis(500),
                SimTime::from_millis(750),
            ]
        );
    }

    #[test]
    fn bursts_cluster_and_stay_in_horizon() {
        let p = ArrivalProcess::bursts(
            4,
            SimDuration::from_millis(5),
            SimDuration::from_millis(500),
        );
        let horizon = SimDuration::from_secs(30);
        let arrivals = p.arrivals(horizon, &mut SeedRng::new(3));
        assert!(!arrivals.is_empty());
        assert!(arrivals.iter().all(|&t| t < SimTime::ZERO + horizon));
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        // Within a burst consecutive gaps are exactly `spacing`.
        let tight = arrivals
            .windows(2)
            .filter(|w| w[1] - w[0] == SimDuration::from_millis(5))
            .count();
        assert!(
            tight > arrivals.len() / 2,
            "tight={tight}/{}",
            arrivals.len()
        );
    }

    /// The long-run mean offered rate in requests per second.
    fn mean_rate_hz(p: &ArrivalProcess) -> f64 {
        match *p {
            ArrivalProcess::Poisson { rate_hz } => rate_hz,
            ArrivalProcess::Periodic { period, .. } => 1.0 / period.as_secs_f64(),
            ArrivalProcess::Bursts {
                burst,
                spacing,
                mean_gap,
            } => {
                let cycle = spacing.as_secs_f64() * (burst.saturating_sub(1)) as f64
                    + mean_gap.as_secs_f64();
                burst as f64 / cycle
            }
        }
    }

    #[test]
    fn scaling_moves_the_mean_rate() {
        for p in [
            ArrivalProcess::poisson(4.0),
            ArrivalProcess::periodic(SimDuration::from_millis(250)),
            ArrivalProcess::bursts(5, SimDuration::from_millis(10), SimDuration::from_secs(1)),
        ] {
            let base = mean_rate_hz(&p);
            let doubled = mean_rate_hz(&p.scaled(2.0));
            assert!(
                (doubled / base - 2.0).abs() < 0.25,
                "{p:?}: {base} -> {doubled}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn zero_rate_is_rejected() {
        let _ = ArrivalProcess::poisson(0.0);
    }
}
