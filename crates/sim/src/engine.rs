//! The simulation executor.
//!
//! An [`Engine`] repeatedly pops the earliest pending event, advances the
//! clock to its timestamp, and hands it to the world's [`World::handle`].
//! The handler receives a [`Context`] through which it can schedule further
//! events; it never sees the engine itself, which keeps scheduling and
//! world-state mutation cleanly separated.

use crate::queue::EventQueue;
use std::fmt;
use zeiot_core::time::{SimDuration, SimTime};

/// The simulated system: owns all domain state and reacts to events.
///
/// Implementors mutate their own state and schedule follow-up events via
/// the [`Context`]. See the crate-level example.
pub trait World {
    /// The event payload type dispatched by the engine.
    type Event;

    /// Reacts to `event` firing at `ctx.now()`.
    fn handle(&mut self, ctx: &mut Context<'_, Self::Event>, event: Self::Event);
}

/// Scheduling facade handed to [`World::handle`].
///
/// Borrows the engine's queue and clock for the duration of one event
/// dispatch.
pub struct Context<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    stop_requested: &'a mut bool,
}

impl<E> fmt::Debug for Context<'_, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("stop_requested", self.stop_requested)
            .finish()
    }
}

impl<E> Context<'_, E> {
    /// The current simulated time (the timestamp of the event being
    /// handled).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time — scheduling into
    /// the past would break causality.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at:?} < {:?}",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Requests that the engine stop after the current event completes,
    /// leaving remaining events in the queue.
    pub fn stop(&mut self) {
        *self.stop_requested = true;
    }

    /// Number of events currently pending (excluding the one being
    /// handled).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

/// A deterministic discrete-event simulation engine.
///
/// Construct with a world, seed the queue via [`Engine::schedule_at`], then
/// drive with [`Engine::run`], [`Engine::run_until`] or [`Engine::step`].
#[derive(Debug)]
pub struct Engine<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: SimTime,
    dispatched: u64,
}

impl<W: World> Engine<W> {
    /// Creates an engine at time zero wrapping `world`.
    pub fn new(world: W) -> Self {
        Self {
            world,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            dispatched: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Consumes the engine, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedules an event from outside the simulation (initial conditions).
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_at(&mut self, at: SimTime, event: W::Event) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, event);
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: W::Event) {
        self.queue.push(self.now + delay, event);
    }

    /// Advances the clock to `time` and hands `event` to the world.
    /// Returns whether the handler requested a stop.
    fn dispatch(&mut self, time: SimTime, event: W::Event) -> bool {
        debug_assert!(time >= self.now, "event queue returned a past event");
        self.now = time;
        self.dispatched += 1;
        let mut stop = false;
        let mut ctx = Context {
            now: self.now,
            queue: &mut self.queue,
            stop_requested: &mut stop,
        };
        self.world.handle(&mut ctx, event);
        stop
    }

    /// Dispatches the single earliest event, advancing the clock to its
    /// timestamp. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        let Some((time, event)) = self.queue.pop() else {
            return false;
        };
        self.dispatch(time, event);
        true
    }

    /// Runs until the queue is exhausted. Returns the number of events
    /// dispatched by this call.
    pub fn run(&mut self) -> u64 {
        let before = self.dispatched;
        loop {
            let Some((time, event)) = self.queue.pop() else {
                break;
            };
            if self.dispatch(time, event) {
                break;
            }
        }
        self.dispatched - before
    }

    /// Runs until the queue is exhausted or the next event would fire after
    /// `deadline`; the clock is left at the last dispatched event (or
    /// `deadline` if no event fired beyond it). Returns the number of events
    /// dispatched by this call.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let before = self.dispatched;
        while let Some(next) = self.queue.peek_time() {
            if next > deadline {
                break;
            }
            let (time, event) = self.queue.pop().expect("peeked event vanished");
            if self.dispatch(time, event) {
                return self.dispatched - before;
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
        self.dispatched - before
    }

    /// Number of events pending in the queue.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// World that records the order and times of fired events.
    struct Recorder {
        fired: Vec<(SimTime, u32)>,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Context<'_, u32>, event: u32) {
            self.fired.push((ctx.now(), event));
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut engine = Engine::new(Recorder { fired: vec![] });
        engine.schedule_at(SimTime::from_secs(2), 2);
        engine.schedule_at(SimTime::from_secs(1), 1);
        engine.schedule_at(SimTime::from_secs(3), 3);
        assert_eq!(engine.run(), 3);
        let order: Vec<u32> = engine.world().fired.iter().map(|&(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(engine.now(), SimTime::from_secs(3));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut engine = Engine::new(Recorder { fired: vec![] });
        for s in 1..=10 {
            engine.schedule_at(SimTime::from_secs(s), s as u32);
        }
        let n = engine.run_until(SimTime::from_secs(5));
        assert_eq!(n, 5);
        assert_eq!(engine.pending_events(), 5);
        assert_eq!(engine.now(), SimTime::from_secs(5));
        // Events exactly at the deadline fire; later ones do not.
        assert_eq!(engine.world().fired.len(), 5);
    }

    #[test]
    fn run_until_advances_clock_when_queue_is_sparse() {
        let mut engine = Engine::new(Recorder { fired: vec![] });
        engine.schedule_at(SimTime::from_secs(1), 1);
        engine.run_until(SimTime::from_secs(100));
        assert_eq!(engine.now(), SimTime::from_secs(100));
    }

    struct Chain {
        remaining: u32,
    }

    impl World for Chain {
        type Event = ();
        fn handle(&mut self, ctx: &mut Context<'_, ()>, _e: ()) {
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.schedule_in(SimDuration::from_millis(1), ());
            }
        }
    }

    #[test]
    fn handlers_can_schedule_follow_ups() {
        let mut engine = Engine::new(Chain { remaining: 99 });
        engine.schedule_at(SimTime::ZERO, ());
        assert_eq!(engine.run(), 100);
        assert_eq!(engine.world().remaining, 0);
        assert_eq!(engine.now(), SimTime::from_millis(99));
    }

    struct Stopper {
        handled: u32,
    }

    impl World for Stopper {
        type Event = bool; // true = request stop
        fn handle(&mut self, ctx: &mut Context<'_, bool>, stop: bool) {
            self.handled += 1;
            if stop {
                ctx.stop();
            }
        }
    }

    #[test]
    fn stop_halts_run_leaving_pending_events() {
        let mut engine = Engine::new(Stopper { handled: 0 });
        engine.schedule_at(SimTime::from_secs(1), false);
        engine.schedule_at(SimTime::from_secs(2), true);
        engine.schedule_at(SimTime::from_secs(3), false);
        engine.run();
        assert_eq!(engine.world().handled, 2);
        assert_eq!(engine.pending_events(), 1);
    }

    #[test]
    fn step_dispatches_one_event() {
        let mut engine = Engine::new(Recorder { fired: vec![] });
        engine.schedule_at(SimTime::from_secs(1), 1);
        engine.schedule_at(SimTime::from_secs(2), 2);
        assert!(engine.step());
        assert_eq!(engine.world().fired.len(), 1);
        assert!(engine.step());
        assert!(!engine.step());
        assert_eq!(engine.dispatched(), 2);
    }

    #[test]
    #[should_panic]
    fn scheduling_into_the_past_panics() {
        let mut engine = Engine::new(Recorder { fired: vec![] });
        engine.schedule_at(SimTime::from_secs(5), 1);
        engine.run();
        engine.schedule_at(SimTime::from_secs(1), 2);
    }

    #[test]
    fn into_world_returns_final_state() {
        let mut engine = Engine::new(Chain { remaining: 3 });
        engine.schedule_at(SimTime::ZERO, ());
        engine.run();
        let world = engine.into_world();
        assert_eq!(world.remaining, 0);
    }
}
