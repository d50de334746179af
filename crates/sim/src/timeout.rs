//! Simulated-time retry scheduling.
//!
//! Retransmission timeouts must be *simulated-time* events: a retry fired
//! from a wall-clock timer would make traces depend on host speed and
//! break determinism. [`RetrySchedule`] describes a bounded
//! exponential-backoff schedule purely in [`SimDuration`] terms, and
//! [`Context::schedule_retry`] turns "retry number `k` of this message"
//! into an ordinary event on the engine's queue.

use crate::engine::Context;
use zeiot_core::error::{require_positive, ConfigError, Result};
use zeiot_core::time::SimDuration;

/// A bounded exponential-backoff retry schedule.
///
/// Retry `k` (1-based) fires `base · backoff^(k-1)` after the attempt it
/// follows; retries beyond `max_retries` are refused.
///
/// # Example
///
/// ```
/// use zeiot_core::time::SimDuration;
/// use zeiot_sim::RetrySchedule;
///
/// let s = RetrySchedule::new(SimDuration::from_millis(50), 2.0, 3).unwrap();
/// assert_eq!(s.delay_for(1), Some(SimDuration::from_millis(50)));
/// assert_eq!(s.delay_for(2), Some(SimDuration::from_millis(100)));
/// assert_eq!(s.delay_for(3), Some(SimDuration::from_millis(200)));
/// assert_eq!(s.delay_for(4), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrySchedule {
    base: SimDuration,
    backoff_milli: u64,
    max_retries: u32,
}

impl RetrySchedule {
    /// Creates a schedule with first-retry delay `base`, multiplicative
    /// `backoff` per further retry, and at most `max_retries` retries.
    ///
    /// The backoff factor is stored with millifactor (1/1000) resolution
    /// so delay arithmetic stays exact-integer and thus deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `base` is zero or `backoff` is not a
    /// finite positive number (factors below 1.0 are allowed — they
    /// shrink delays — but zero is not).
    pub fn new(base: SimDuration, backoff: f64, max_retries: u32) -> Result<Self> {
        if base.is_zero() {
            return Err(ConfigError::new("base", "retry timeout must be non-zero"));
        }
        require_positive("backoff", backoff)?;
        let backoff_milli = (backoff * 1000.0).round() as u64;
        if backoff_milli == 0 {
            return Err(ConfigError::new(
                "backoff",
                "rounds to zero at 1/1000 resolution",
            ));
        }
        Ok(Self {
            base,
            backoff_milli,
            max_retries,
        })
    }

    /// The delay before the first retry.
    pub fn base(&self) -> SimDuration {
        self.base
    }

    /// The backoff factor, at the stored 1/1000 resolution.
    pub fn backoff(&self) -> f64 {
        self.backoff_milli as f64 / 1000.0
    }

    /// The retry budget.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// The backoff delay preceding retry number `retry` (1-based), or
    /// `None` when the budget is exhausted (or `retry` is 0, which is the
    /// initial attempt and has no delay).
    pub fn delay_for(&self, retry: u32) -> Option<SimDuration> {
        if retry == 0 || retry > self.max_retries {
            return None;
        }
        let mut nanos = self.base.as_nanos() as u128;
        for _ in 1..retry {
            nanos = nanos * self.backoff_milli as u128 / 1000;
        }
        Some(SimDuration::from_nanos(nanos.min(u64::MAX as u128) as u64))
    }
}

impl<E> Context<'_, E> {
    /// Schedules `event` as retry number `retry` (1-based) of some message
    /// under `schedule`, as a simulated-time event relative to now.
    /// Returns `false` — scheduling nothing — once the budget is
    /// exhausted, so callers can write
    /// `if !ctx.schedule_retry(&s, k, ev) { give_up() }`.
    pub fn schedule_retry(&mut self, schedule: &RetrySchedule, retry: u32, event: E) -> bool {
        match schedule.delay_for(retry) {
            Some(delay) => {
                self.schedule_in(delay, event);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, World};
    use zeiot_core::time::SimTime;

    #[test]
    fn delays_follow_exponential_backoff() {
        let s = RetrySchedule::new(SimDuration::from_millis(10), 3.0, 4).unwrap();
        assert_eq!(s.delay_for(0), None);
        assert_eq!(s.delay_for(1), Some(SimDuration::from_millis(10)));
        assert_eq!(s.delay_for(2), Some(SimDuration::from_millis(30)));
        assert_eq!(s.delay_for(3), Some(SimDuration::from_millis(90)));
        assert_eq!(s.delay_for(4), Some(SimDuration::from_millis(270)));
        assert_eq!(s.delay_for(5), None);
    }

    #[test]
    fn fractional_backoff_is_exact_at_milli_resolution() {
        let s = RetrySchedule::new(SimDuration::from_millis(100), 1.5, 3).unwrap();
        assert_eq!(s.delay_for(1), Some(SimDuration::from_millis(100)));
        assert_eq!(s.delay_for(2), Some(SimDuration::from_millis(150)));
        assert_eq!(s.delay_for(3), Some(SimDuration::from_millis(225)));
        assert!((s.backoff() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sub_unit_backoff_shrinks_delays() {
        let s = RetrySchedule::new(SimDuration::from_millis(100), 0.5, 2).unwrap();
        assert_eq!(s.delay_for(2), Some(SimDuration::from_millis(50)));
    }

    #[test]
    fn zero_retry_budget_refuses_all_retries() {
        let s = RetrySchedule::new(SimDuration::from_millis(10), 2.0, 0).unwrap();
        assert_eq!(s.delay_for(1), None);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(RetrySchedule::new(SimDuration::ZERO, 2.0, 1).is_err());
        assert!(RetrySchedule::new(SimDuration::from_millis(1), 0.0, 1).is_err());
        assert!(RetrySchedule::new(SimDuration::from_millis(1), f64::NAN, 1).is_err());
        assert!(RetrySchedule::new(SimDuration::from_millis(1), -1.0, 1).is_err());
        assert!(RetrySchedule::new(SimDuration::from_millis(1), 1e-9, 1).is_err());
    }

    /// World that retries an event through the schedule until the budget
    /// runs out, recording fire times.
    struct Retrier {
        schedule: RetrySchedule,
        fired: Vec<SimTime>,
    }

    impl World for Retrier {
        type Event = u32; // retry number of the *next* attempt
        fn handle(&mut self, ctx: &mut Context<'_, u32>, retry: u32) {
            self.fired.push(ctx.now());
            let _ = ctx.schedule_retry(&self.schedule.clone(), retry, retry + 1);
        }
    }

    #[test]
    fn schedule_retry_drives_simulated_time_retries() {
        let schedule = RetrySchedule::new(SimDuration::from_millis(50), 2.0, 2).unwrap();
        let mut engine = Engine::new(Retrier {
            schedule,
            fired: vec![],
        });
        // Initial attempt at t=0; its first retry is retry number 1.
        engine.schedule_at(SimTime::ZERO, 1);
        engine.run();
        assert_eq!(
            engine.world().fired,
            vec![
                SimTime::ZERO,
                SimTime::from_millis(50),
                SimTime::from_millis(150),
            ]
        );
    }
}
