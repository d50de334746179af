//! Bounded event tracing.
//!
//! Debugging a distributed protocol needs the last N things that
//! happened, not an unbounded log that outgrows memory in a long
//! simulation. [`TraceBuffer`] is a fixed-capacity ring of timestamped
//! entries: pushes are O(1) and the oldest entries fall off.

use std::collections::VecDeque;
use zeiot_core::time::SimTime;

/// A fixed-capacity ring buffer of timestamped trace entries.
///
/// # Example
///
/// ```
/// use zeiot_sim::trace::TraceBuffer;
/// use zeiot_core::time::SimTime;
///
/// let mut trace = TraceBuffer::new(3);
/// for i in 0..5u32 {
///     trace.push(SimTime::from_millis(i as u64), format!("event {i}"));
/// }
/// // Only the last three survive.
/// let kept: Vec<&String> = trace.iter().map(|(_, e)| e).collect();
/// assert_eq!(kept, [&"event 2".to_owned(), &"event 3".to_owned(), &"event 4".to_owned()]);
/// assert_eq!(trace.dropped(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuffer<T> {
    entries: VecDeque<(SimTime, T)>,
    capacity: usize,
    dropped: u64,
}

impl<T> TraceBuffer<T> {
    /// Creates a buffer keeping the most recent `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an entry, evicting the oldest when full.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the newest entry — traces record causally
    /// ordered simulation events. Like
    /// [`TimeSeries::record`](crate::metrics::TimeSeries::record), ordering
    /// is enforced in release builds too (workspace policy for time-ordered
    /// instruments): a misordered trace would silently lie about causality
    /// exactly when it is being used to debug it.
    pub fn push(&mut self, time: SimTime, entry: T) {
        if let Some(&(last, _)) = self.entries.back() {
            assert!(time >= last, "trace entries must be time-ordered");
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back((time, entry));
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over retained entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &(SimTime, T)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_most_recent_up_to_capacity() {
        let mut trace = TraceBuffer::new(4);
        for i in 0..10u64 {
            trace.push(SimTime::from_millis(i), i);
        }
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.dropped(), 6);
        let kept: Vec<u64> = trace.iter().map(|&(_, e)| e).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn capacity_reported() {
        let trace: TraceBuffer<u8> = TraceBuffer::new(7);
        assert_eq!(trace.capacity(), 7);
        assert!(trace.is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _: TraceBuffer<u8> = TraceBuffer::new(0);
    }

    #[test]
    #[should_panic]
    fn out_of_order_push_panics_in_release_too() {
        // Same enforcement policy as TimeSeries::record: a plain assert,
        // active in all build profiles.
        let mut trace = TraceBuffer::new(4);
        trace.push(SimTime::from_secs(2), "late");
        trace.push(SimTime::from_secs(1), "early");
    }

    #[test]
    fn equal_timestamps_are_allowed() {
        let mut trace = TraceBuffer::new(4);
        trace.push(SimTime::from_secs(1), "a");
        trace.push(SimTime::from_secs(1), "b");
        assert_eq!(trace.len(), 2);
    }
}
