//! # zeiot-fault
//!
//! Deterministic fault injection for the zeiot workspace: lossy radio
//! links, scheduled node brownout windows, message corruption, and the
//! recovery policies distributed inference uses to survive them.
//!
//! The design constraint is *determinism*: every fault decision is a pure
//! hash of `(plan seed, src, dst, sequence number, attempt, simulated
//! time)` — never a draw from a shared RNG stream — so a faulty run is
//! bit-reproducible across thread counts, observation, and re-execution,
//! and two recovery policies can be compared under *identical* loss
//! patterns (common random numbers).
//!
//! * [`FaultPlan`] — the immutable scenario: per-link drop probabilities,
//!   per-node outage windows (hand-written or converted from an `energy`
//!   capacitor on/off trace), and a payload corruption probability.
//! * [`RecoveryPolicy`] — what a consumer does about a lost message:
//!   [`RecoveryPolicy::FailFast`], bounded
//!   [`RecoveryPolicy::Retransmit`] with simulated-time backoff (via
//!   `zeiot_sim::RetrySchedule`), or [`RecoveryPolicy::Degrade`]
//!   substitution.
//! * [`LinkFabric`] — the stateful message path: sequence numbering, the
//!   retransmission loop, consumer bursts that hand each entry back as an
//!   [`Arrival`], and [`FaultStats`] counters exportable to a
//!   `zeiot_obs::Recorder`.
//!
//! # Example
//!
//! ```
//! use zeiot_core::id::NodeId;
//! use zeiot_fault::{FaultPlan, LinkFabric, RecoveryPolicy};
//! use zeiot_core::time::SimDuration;
//!
//! let plan = FaultPlan::uniform(7, 0.3).unwrap();
//! let policy = RecoveryPolicy::Retransmit {
//!     max_retries: 2,
//!     timeout: SimDuration::from_millis(50),
//!     backoff: 2.0,
//! };
//! let mut fabric = LinkFabric::new(plan, policy);
//! let mut delivered = 0;
//! for _ in 0..100 {
//!     if fabric.transmit(NodeId::new(0), NodeId::new(1)).is_delivered() {
//!         delivered += 1;
//!     }
//! }
//! // Retransmission pushes the delivery rate well above 70 %.
//! assert!(delivered > 90);
//! // And an identical fabric reproduces the exact same outcome.
//! ```

pub mod fabric;
pub mod plan;
pub mod policy;

pub use fabric::{Arrival, Delivery, FaultStats, LinkFabric};
pub use plan::{FaultPlan, LinkEvent};
pub use policy::{DegradeMode, RecoveryPolicy};
