//! # zeiot-sim
//!
//! A deterministic discrete-event simulation (DES) kernel for zero-energy
//! IoT device networks.
//!
//! The kernel is deliberately minimal: an [`Engine`] owns an event queue and
//! a user-supplied *world* (any type implementing [`World`]); events are
//! dispatched strictly in `(time, insertion order)` order so two runs with
//! the same seed produce identical traces. The backscatter MAC simulator and
//! the WSN substrate are both built on this kernel.
//!
//! # Example
//!
//! ```
//! use zeiot_sim::{Engine, Context, World};
//! use zeiot_core::time::{SimDuration, SimTime};
//!
//! struct Ping { count: u32 }
//!
//! impl World for Ping {
//!     type Event = ();
//!     fn handle(&mut self, ctx: &mut Context<'_, ()>, _event: ()) {
//!         self.count += 1;
//!         if self.count < 5 {
//!             ctx.schedule_in(SimDuration::from_millis(10), ());
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Ping { count: 0 });
//! engine.schedule_at(SimTime::ZERO, ());
//! engine.run();
//! assert_eq!(engine.world().count, 5);
//! assert_eq!(engine.now(), SimTime::from_millis(40));
//! ```

pub mod engine;
pub mod metrics;
pub mod queue;
pub mod timeout;
pub mod trace;

pub use engine::{Context, Engine, NoopObserver, Observer, World};
pub use metrics::{Counter, Histogram, HistogramSummary, TimeSeries};
pub use queue::EventQueue;
pub use timeout::RetrySchedule;
pub use trace::TraceBuffer;
