//! The stateful message fabric: a [`FaultPlan`] plus a [`RecoveryPolicy`]
//! plus running counters.
//!
//! Subsystems route every cross-node message through a [`LinkFabric`].
//! The fabric assigns each message a monotone sequence number, rolls the
//! plan's deterministic per-attempt decisions, drives the policy's
//! bounded retransmission loop (advancing its simulated clock by the
//! backoff delays, so timeouts are simulated-time, never wall-clock), and
//! tallies [`FaultStats`]. Because sequence numbers are allocated in the
//! caller's deterministic iteration order and every decision is a pure
//! hash, a fabric-mediated computation stays bit-reproducible.
//!
//! Every attempt's fate is [`FaultPlan::decide`]'s, computed without
//! redoing per message what is fixed for the fabric's lifetime (the
//! lossless flag, the attempt budget, the retry schedule, the hash
//! prefixes and the probabilities as integer thresholds) or what changes
//! only when the clock moves (the set of dark nodes, refreshed on
//! [`LinkFabric::advance`] and after each retry backoff).
//! [`LinkFabric::transmit_burst`] carries a consumer's messages from many
//! sources in one call, so a single-attempt policy checks the
//! destination's liveness and adds the counters once per burst. Two
//! proptests below drive the fabric, one message at a time and in bursts,
//! against a reference loop written on `decide`.

use crate::plan::{FaultPlan, LinkEvent, Rolls};
use crate::policy::RecoveryPolicy;
use zeiot_core::id::NodeId;
use zeiot_core::time::{SimDuration, SimTime};
use zeiot_obs::{Label, Recorder};
use zeiot_sim::RetrySchedule;

/// The outcome of transmitting one message through the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The message arrived after `attempts` transmissions.
    Delivered {
        /// Whether the payload arrived corrupted.
        corrupted: bool,
        /// Transmissions used (1 = first try).
        attempts: u32,
    },
    /// Every allowed attempt was lost.
    Failed {
        /// Transmissions used.
        attempts: u32,
    },
}

impl Delivery {
    /// Whether the message made it through (possibly corrupted).
    pub fn is_delivered(&self) -> bool {
        matches!(self, Delivery::Delivered { .. })
    }
}

/// Running fault-injection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transmission attempts (including retransmissions).
    pub sent: u64,
    /// Messages that arrived (intact or corrupted).
    pub delivered: u64,
    /// Attempts lost to link drops or outages.
    pub drops: u64,
    /// Retransmission attempts.
    pub retries: u64,
    /// Messages delivered with corrupted payloads.
    pub corrupted: u64,
    /// Messages lost after exhausting every allowed attempt.
    pub failed: u64,
    /// Lost values substituted by a degrade policy.
    pub degraded: u64,
    /// Messages recovered by retransmission (delivered after ≥1 retry).
    pub recovered: u64,
    /// Extra route traversals spent on recoveries, in hops: each retry of
    /// a message re-walks its `hops`-hop route.
    pub recovery_latency_hops: u64,
    /// Consuming computations aborted under a fail-fast policy.
    pub aborted: u64,
}

impl FaultStats {
    /// Messages offered to the fabric (attempts minus retransmissions).
    pub fn offered(&self) -> u64 {
        self.sent - self.retries
    }

    /// Mean recovery latency in hops over recovered messages.
    pub fn mean_recovery_latency_hops(&self) -> f64 {
        if self.recovered == 0 {
            return 0.0;
        }
        self.recovery_latency_hops as f64 / self.recovered as f64
    }

    /// Traffic overhead of recovery: attempts per offered message.
    pub fn traffic_overhead(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            return 1.0;
        }
        self.sent as f64 / offered as f64
    }

    /// The counter deltas accumulated since `earlier` (an older copy of
    /// the same stats) — how per-hop tracing brackets a burst of
    /// fetches: copy the stats before, subtract after. Saturating, so a
    /// mismatched pair degrades to zeros instead of wrapping.
    pub fn delta_since(&self, earlier: &FaultStats) -> FaultStats {
        FaultStats {
            sent: self.sent.saturating_sub(earlier.sent),
            delivered: self.delivered.saturating_sub(earlier.delivered),
            drops: self.drops.saturating_sub(earlier.drops),
            retries: self.retries.saturating_sub(earlier.retries),
            corrupted: self.corrupted.saturating_sub(earlier.corrupted),
            failed: self.failed.saturating_sub(earlier.failed),
            degraded: self.degraded.saturating_sub(earlier.degraded),
            recovered: self.recovered.saturating_sub(earlier.recovered),
            recovery_latency_hops: self
                .recovery_latency_hops
                .saturating_sub(earlier.recovery_latency_hops),
            aborted: self.aborted.saturating_sub(earlier.aborted),
        }
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &FaultStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.drops += other.drops;
        self.retries += other.retries;
        self.corrupted += other.corrupted;
        self.failed += other.failed;
        self.degraded += other.degraded;
        self.recovered += other.recovered;
        self.recovery_latency_hops += other.recovery_latency_hops;
        self.aborted += other.aborted;
    }

    /// Writes the counters into `recorder` under `label` as
    /// `fault.sent`, `fault.drops`, `fault.retries`, `fault.degraded`,
    /// `fault.recovery_latency_hops` and friends.
    pub fn record_to(&self, recorder: &mut Recorder, label: Label) {
        for (name, value) in [
            ("fault.sent", self.sent),
            ("fault.delivered", self.delivered),
            ("fault.drops", self.drops),
            ("fault.retries", self.retries),
            ("fault.corrupted", self.corrupted),
            ("fault.failed", self.failed),
            ("fault.degraded", self.degraded),
            ("fault.recovered", self.recovered),
            ("fault.recovery_latency_hops", self.recovery_latency_hops),
            ("fault.aborted", self.aborted),
        ] {
            recorder.add(name, label.clone(), value);
        }
    }
}

/// The stateful fabric; see the module docs.
///
/// # Example
///
/// ```
/// use zeiot_core::id::NodeId;
/// use zeiot_fault::{Delivery, FaultPlan, LinkFabric, RecoveryPolicy};
///
/// let mut fabric = LinkFabric::new(FaultPlan::lossless(), RecoveryPolicy::FailFast);
/// let out = fabric.transmit(NodeId::new(0), NodeId::new(1));
/// assert!(out.is_delivered());
/// assert_eq!(fabric.stats().sent, 1);
/// ```
#[derive(Debug, Clone)]
pub struct LinkFabric {
    plan: FaultPlan,
    policy: RecoveryPolicy,
    seq: u64,
    now: SimTime,
    stats: FaultStats,
    /// `plan.is_lossless()`, fixed for the fabric's lifetime.
    lossless: bool,
    /// `policy.max_attempts()`.
    max_attempts: u32,
    /// `policy.retry_schedule()`.
    schedule: Option<RetrySchedule>,
    /// The plan's hash prefixes and its probabilities as integer
    /// thresholds.
    rolls: Rolls,
    /// The nodes dark at `now`, as `plan.down_set_at(now)` reports them:
    /// sorted, and never longer than the plan's list of nodes with
    /// outage windows.
    down: Vec<NodeId>,
    /// The next instant an outage window opens or closes: `down` holds
    /// until the clock reaches it.
    down_until: SimTime,
}

impl LinkFabric {
    /// A fabric at simulated time zero with zeroed counters.
    pub fn new(plan: FaultPlan, policy: RecoveryPolicy) -> Self {
        let mut fabric = Self {
            lossless: plan.is_lossless(),
            max_attempts: policy.max_attempts(),
            schedule: policy.retry_schedule(),
            rolls: plan.rolls(),
            down: Vec::new(),
            down_until: SimTime::ZERO,
            plan,
            policy,
            seq: 0,
            now: SimTime::ZERO,
            stats: FaultStats::default(),
        };
        fabric.set_now(SimTime::ZERO);
        fabric
    }

    /// The fault plan.
    #[inline]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The recovery policy.
    #[inline]
    pub fn policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// Transmissions the policy allows per message (1 unless it
    /// retransmits).
    #[inline]
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The fabric's simulated clock.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The nodes dark at [`LinkFabric::now`], in ascending id order:
    /// `plan().down_set_at(now())`, kept current as the clock moves.
    #[inline]
    pub fn down_set(&self) -> &[NodeId] {
        &self.down
    }

    /// Advances the simulated clock (e.g. one sensing cycle per
    /// inference pass), moving messages into or out of outage windows.
    pub fn advance(&mut self, d: SimDuration) {
        self.set_now(self.now.saturating_add(d));
    }

    /// Moves the clock and refreshes the dark-node set in place once
    /// the clock reaches a window edge (the clock never moves back).
    fn set_now(&mut self, now: SimTime) {
        self.now = now;
        if now >= self.down_until {
            self.down_until = self.plan.fill_down_set(now, &mut self.down);
        }
    }

    /// The running counters.
    #[inline]
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Counts a degrade-substituted value.
    #[inline]
    pub fn note_degraded(&mut self) {
        self.stats.degraded += 1;
    }

    /// Counts an aborted consuming computation.
    pub fn note_aborted(&mut self) {
        self.stats.aborted += 1;
    }

    /// Transmits one message over a single-hop route.
    pub fn transmit(&mut self, src: NodeId, dst: NodeId) -> Delivery {
        self.transmit_over(src, dst, 1)
    }

    /// Transmits one message whose route is `hops` hops long, driving the
    /// policy's retransmission loop. Retries advance the simulated clock
    /// by the policy's backoff schedule, so a retransmission that lands
    /// inside an outage window is (correctly) lost and one that lands
    /// after the window ends can succeed.
    #[inline]
    pub fn transmit_over(&mut self, src: NodeId, dst: NodeId, hops: u32) -> Delivery {
        let seq = self.seq;
        self.seq += 1;
        if self.lossless {
            // Fast path: nothing can go wrong, skip the hashing.
            self.stats.sent += 1;
            self.stats.delivered += 1;
            return Delivery::Delivered {
                corrupted: false,
                attempts: 1,
            };
        }
        let max_attempts = self.max_attempts;
        for attempt in 0..max_attempts {
            if attempt > 0 {
                self.stats.retries += 1;
                if let Some(delay) = self.schedule.and_then(|s| s.delay_for(attempt)) {
                    self.set_now(self.now.saturating_add(delay));
                }
            }
            self.stats.sent += 1;
            match self.decide(src, dst, seq, attempt) {
                LinkEvent::Delivered => {
                    self.stats.delivered += 1;
                    if attempt > 0 {
                        self.stats.recovered += 1;
                        self.stats.recovery_latency_hops += u64::from(attempt) * u64::from(hops);
                    }
                    return Delivery::Delivered {
                        corrupted: false,
                        attempts: attempt + 1,
                    };
                }
                LinkEvent::Corrupted => {
                    self.stats.delivered += 1;
                    self.stats.corrupted += 1;
                    if attempt > 0 {
                        self.stats.recovered += 1;
                        self.stats.recovery_latency_hops += u64::from(attempt) * u64::from(hops);
                    }
                    return Delivery::Delivered {
                        corrupted: true,
                        attempts: attempt + 1,
                    };
                }
                LinkEvent::Dropped => {
                    self.stats.drops += 1;
                }
            }
        }
        self.stats.failed += 1;
        Delivery::Failed {
            attempts: max_attempts,
        }
    }

    /// Transmits one consumer's burst to `dst`: entry `i` is a message
    /// from `srcs[i]` carrying `values[i]`, sent in entry order. An entry
    /// whose source is `dst` is local: it takes no sequence number and no
    /// counter, and its value passes through. Every other entry is one
    /// message, with the sequence number, fate and counters
    /// [`LinkFabric::transmit_over`] gives it over a route of `hops(src)`
    /// hops. On return `values` holds what arrived, a corrupted payload
    /// flipped by [`FaultPlan::corrupt_value`], and `lost` the indices of
    /// the entries that never did, ascending; a lost entry keeps the value
    /// sent, for the caller to substitute. Under a policy that does not
    /// degrade, the first loss ends the burst: no later entry is sent, and
    /// the call returns `false`.
    ///
    /// Under a single-attempt policy the burst checks `dst` against the
    /// dark set once, compares each draw against an integer threshold, and
    /// adds the counters once. A retransmitting policy sends each message
    /// through `transmit_over`, since its backoffs move the clock.
    #[must_use = "`false` means a loss ended the burst"]
    pub fn transmit_burst(
        &mut self,
        dst: NodeId,
        srcs: &[NodeId],
        values: &mut [f32],
        mut hops: impl FnMut(NodeId) -> u32,
        lost: &mut Vec<usize>,
    ) -> bool {
        lost.clear();
        lost.reserve(srcs.len());
        let aborts = self.policy.degrade_mode().is_none();
        let entries = srcs.iter().zip(values).enumerate();
        if self.max_attempts > 1 {
            for (i, (&src, value)) in entries.filter(|(_, (&src, _))| src != dst) {
                match self.transmit_over(src, dst, hops(src)) {
                    Delivery::Delivered { corrupted, .. } => {
                        if corrupted {
                            let seq = self.seq - 1;
                            *value = self.plan.corrupt_value(*value, src, dst, seq);
                        }
                    }
                    Delivery::Failed { .. } => {
                        lost.push(i);
                        if aborts {
                            return false;
                        }
                    }
                }
            }
            return true;
        }
        let (plan, rolls, down) = (&self.plan, &self.rolls, self.down.as_slice());
        let dst_dark = down.binary_search(&dst).is_ok();
        let (mut seq, mut corrupted) = (self.seq, 0);
        for (i, (&src, value)) in entries {
            if src == dst {
                continue;
            }
            let event = if dst_dark || down.binary_search(&src).is_ok() {
                LinkEvent::Dropped
            } else {
                plan.roll_first(rolls, src, dst, seq)
            };
            seq += 1;
            match event {
                LinkEvent::Delivered => {}
                LinkEvent::Corrupted => {
                    *value = plan.corrupt_value(*value, src, dst, seq - 1);
                    corrupted += 1;
                }
                LinkEvent::Dropped => {
                    lost.push(i);
                    if aborts {
                        break;
                    }
                }
            }
        }
        let (sent, failed) = (seq - self.seq, lost.len() as u64);
        self.seq = seq;
        self.stats.sent += sent;
        self.stats.delivered += sent - failed;
        self.stats.drops += failed;
        self.stats.failed += failed;
        self.stats.corrupted += corrupted;
        !(aborts && failed > 0)
    }

    /// `plan.decide(src, dst, seq, attempt, now)`, from the cached
    /// dark-node set and hash prefixes.
    #[inline]
    fn decide(&self, src: NodeId, dst: NodeId, seq: u64, attempt: u32) -> LinkEvent {
        if self.down.binary_search(&src).is_ok() || self.down.binary_search(&dst).is_ok() {
            return LinkEvent::Dropped;
        }
        self.plan.roll(self.rolls.prefixes, src, dst, seq, attempt)
    }

    /// The sequence number of the next message (how many messages the
    /// fabric has carried).
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DegradeMode;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn delta_since_inverts_merge() {
        let before = FaultStats {
            sent: 10,
            delivered: 8,
            drops: 2,
            retries: 1,
            ..FaultStats::default()
        };
        let burst = FaultStats {
            sent: 5,
            delivered: 4,
            drops: 1,
            degraded: 1,
            ..FaultStats::default()
        };
        let mut after = before;
        after.merge(&burst);
        assert_eq!(after.delta_since(&before), burst);
        // A mismatched pair saturates to zeros instead of wrapping.
        assert_eq!(before.delta_since(&after), FaultStats::default());
    }

    fn retransmit(max_retries: u32) -> RecoveryPolicy {
        RecoveryPolicy::Retransmit {
            max_retries,
            timeout: SimDuration::from_millis(50),
            backoff: 2.0,
        }
    }

    #[test]
    fn lossless_fast_path_counts_messages() {
        let mut fabric = LinkFabric::new(FaultPlan::lossless(), RecoveryPolicy::FailFast);
        for _ in 0..10 {
            assert!(fabric.transmit(n(0), n(1)).is_delivered());
        }
        assert_eq!(fabric.stats().sent, 10);
        assert_eq!(fabric.stats().delivered, 10);
        assert_eq!(fabric.stats().drops, 0);
        assert_eq!(fabric.next_seq(), 10);
    }

    #[test]
    fn retransmission_recovers_messages_and_counts_latency() {
        let plan = FaultPlan::uniform(21, 0.5).unwrap();
        let mut fabric = LinkFabric::new(plan, retransmit(4));
        let mut failed = 0u64;
        for _ in 0..2000 {
            if !fabric.transmit_over(n(0), n(1), 3).is_delivered() {
                failed += 1;
            }
        }
        let stats = fabric.stats();
        assert!(stats.recovered > 0);
        assert!(stats.retries > 0);
        // Each recovery cost at least its route length in extra hops.
        assert!(stats.recovery_latency_hops >= stats.recovered * 3);
        assert_eq!(stats.failed, failed);
        // p=0.5 with 5 attempts: failure rate ~0.5^5 ≈ 3 %.
        assert!(failed < 150, "failed={failed}");
        assert_eq!(stats.sent, stats.delivered + stats.drops);
    }

    #[test]
    fn zero_retry_retransmit_equals_fail_fast_exactly() {
        let plan = FaultPlan::uniform(9, 0.3).unwrap();
        let mut a = LinkFabric::new(plan.clone(), RecoveryPolicy::FailFast);
        let mut b = LinkFabric::new(plan, retransmit(0));
        for seq in 0..3000u64 {
            let src = n((seq % 5) as u32);
            let dst = n(((seq / 5) % 5) as u32 + 5);
            assert_eq!(a.transmit(src, dst), b.transmit(src, dst));
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn retries_advance_simulated_time_with_backoff() {
        // Certain drop: every message exhausts its attempts and the clock
        // advances by the full backoff schedule per message.
        let plan = FaultPlan::uniform(2, 1.0).unwrap();
        let mut fabric = LinkFabric::new(plan, retransmit(2));
        let before = fabric.now();
        let out = fabric.transmit(n(0), n(1));
        assert!(!out.is_delivered());
        // 50 ms + 100 ms of backoff.
        assert_eq!(
            fabric.now().duration_since(before),
            SimDuration::from_millis(150)
        );
    }

    #[test]
    fn retransmission_rides_out_an_outage_window() {
        // Node 1 is dark for the first 60 ms; the first attempt at t=0
        // drops, the retry at t=50ms drops, the retry at t=150ms lands.
        let plan = FaultPlan::lossless()
            .with_outage(n(1), SimTime::ZERO, SimTime::from_millis(60))
            .unwrap();
        let mut fabric = LinkFabric::new(plan, retransmit(3));
        match fabric.transmit(n(0), n(1)) {
            Delivery::Delivered { attempts, .. } => assert_eq!(attempts, 3),
            other => panic!("expected recovery, got {other:?}"),
        }
        // Fail-fast under the same plan is simply lost.
        let plan = FaultPlan::lossless()
            .with_outage(n(1), SimTime::ZERO, SimTime::from_millis(60))
            .unwrap();
        let mut ff = LinkFabric::new(plan, RecoveryPolicy::FailFast);
        assert!(!ff.transmit(n(0), n(1)).is_delivered());
    }

    #[test]
    fn stats_merge_and_ratios() {
        let plan = FaultPlan::uniform(4, 0.4).unwrap();
        let mut fabric = LinkFabric::new(plan, retransmit(1));
        for _ in 0..500 {
            let _ = fabric.transmit(n(0), n(1));
        }
        let mut total = FaultStats::default();
        total.merge(fabric.stats());
        total.merge(fabric.stats());
        assert_eq!(total.sent, fabric.stats().sent * 2);
        assert!(fabric.stats().drops as f64 / fabric.stats().sent as f64 > 0.2);
        assert!(fabric.stats().traffic_overhead() > 1.0);
        assert!(fabric.stats().mean_recovery_latency_hops() >= 1.0);
    }

    #[test]
    fn degrade_counters_track_substitutions() {
        let plan = FaultPlan::uniform(6, 1.0).unwrap();
        let mut fabric = LinkFabric::new(
            plan,
            RecoveryPolicy::Degrade {
                mode: DegradeMode::ZeroFill,
            },
        );
        if !fabric.transmit(n(0), n(1)).is_delivered() {
            fabric.note_degraded();
        }
        assert_eq!(fabric.stats().degraded, 1);
        fabric.note_aborted();
        assert_eq!(fabric.stats().aborted, 1);
    }

    #[test]
    fn stats_record_to_recorder() {
        let plan = FaultPlan::uniform(8, 0.5).unwrap();
        let mut fabric = LinkFabric::new(plan, retransmit(2));
        for _ in 0..200 {
            let _ = fabric.transmit(n(0), n(1));
        }
        let mut rec = Recorder::new();
        fabric.stats().record_to(&mut rec, Label::Global);
        assert_eq!(
            rec.counter_value("fault.sent", &Label::Global),
            fabric.stats().sent
        );
        assert_eq!(
            rec.counter_value("fault.drops", &Label::Global),
            fabric.stats().drops
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::policy::DegradeMode;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The fabric as a plain loop over [`FaultPlan::decide`]: no lossless
    /// fast path, no cached constants, liveness looked up per attempt.
    struct Reference {
        plan: FaultPlan,
        policy: RecoveryPolicy,
        seq: u64,
        now: SimTime,
        stats: FaultStats,
    }

    impl Reference {
        fn transmit_over(&mut self, src: NodeId, dst: NodeId, hops: u32) -> Delivery {
            let seq = self.seq;
            self.seq += 1;
            let schedule = self.policy.retry_schedule();
            for attempt in 0..self.policy.max_attempts() {
                if attempt > 0 {
                    self.stats.retries += 1;
                    if let Some(delay) = schedule.and_then(|s| s.delay_for(attempt)) {
                        self.now = self.now.saturating_add(delay);
                    }
                }
                self.stats.sent += 1;
                let event = self.plan.decide(src, dst, seq, attempt, self.now);
                if event == LinkEvent::Dropped {
                    self.stats.drops += 1;
                    continue;
                }
                let corrupted = event == LinkEvent::Corrupted;
                self.stats.delivered += 1;
                self.stats.corrupted += u64::from(corrupted);
                if attempt > 0 {
                    self.stats.recovered += 1;
                    self.stats.recovery_latency_hops += u64::from(attempt) * u64::from(hops);
                }
                return Delivery::Delivered {
                    corrupted,
                    attempts: attempt + 1,
                };
            }
            self.stats.failed += 1;
            Delivery::Failed {
                attempts: self.policy.max_attempts(),
            }
        }

        /// A burst as single messages in entry order: a local entry
        /// passes untouched, every other one goes through
        /// `transmit_over`, and a loss ends the burst unless the policy
        /// degrades.
        fn transmit_burst(
            &mut self,
            dst: NodeId,
            srcs: &[NodeId],
            values: &mut [f32],
            hops: impl Fn(NodeId) -> u32,
            lost: &mut Vec<usize>,
        ) -> bool {
            lost.clear();
            for (i, (&src, value)) in srcs.iter().zip(values).enumerate() {
                if src == dst {
                    continue;
                }
                match self.transmit_over(src, dst, hops(src)) {
                    Delivery::Delivered { corrupted, .. } => {
                        if corrupted {
                            *value = self.plan.corrupt_value(*value, src, dst, self.seq - 1);
                        }
                    }
                    Delivery::Failed { .. } => {
                        lost.push(i);
                        if self.policy.degrade_mode().is_none() {
                            return false;
                        }
                    }
                }
            }
            true
        }
    }

    /// Node ids the streams use; the last stands for an id outside any
    /// topology.
    fn node(i: u32) -> NodeId {
        NodeId::new(if i == 7 { 99 } else { i })
    }

    /// A plan from `(seed, drop, corrupt)` rates, `(src, dst, p)` link
    /// overrides and `(node, from ms, length ms)` outages, and a policy
    /// from `(kind, max retries, timeout ms, backoff)`; and a reference
    /// fabric over both.
    fn scenario(
        (seed, drop, corrupt): (u64, f64, f64),
        links: &[(u32, u32, f64)],
        outages: &[(u32, u64, u64)],
        (kind, max_retries, timeout_ms, backoff): (usize, u32, u64, f64),
    ) -> (FaultPlan, RecoveryPolicy, Reference) {
        let mut plan = FaultPlan::uniform(seed, drop)
            .unwrap()
            .with_corruption(corrupt)
            .unwrap();
        for &(src, dst, p) in links {
            plan = plan.with_link_drop(node(src), node(dst), p).unwrap();
        }
        for &(n, from, len) in outages {
            let (from, until) = (SimTime::from_millis(from), SimTime::from_millis(from + len));
            plan = plan.with_outage(node(n), from, until).unwrap();
        }
        let policy = match kind {
            0 => RecoveryPolicy::FailFast,
            1 => RecoveryPolicy::Retransmit {
                max_retries,
                timeout: SimDuration::from_millis(timeout_ms),
                backoff,
            },
            2 => RecoveryPolicy::Degrade {
                mode: DegradeMode::ZeroFill,
            },
            _ => RecoveryPolicy::Degrade {
                mode: DegradeMode::LastValueHold,
            },
        };
        let reference = Reference {
            plan: plan.clone(),
            policy,
            seq: 0,
            now: SimTime::ZERO,
            stats: FaultStats::default(),
        };
        (plan, policy, reference)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The fabric's cached constants and dark-node set decide every
        /// attempt exactly as `FaultPlan::decide` does, with outage edges
        /// falling inside retry backoffs and clock advances interleaved
        /// with messages, under every policy.
        #[test]
        fn cached_fabric_equals_decide_reference(
            rates in (0u64..10_000, 0.0f64..0.6, 0.0f64..0.3),
            links in vec((0u32..8, 0u32..8, 0.0f64..1.0), 0..4),
            outages in vec((0u32..8, 0u64..3_000, 1u64..800), 0..6),
            policy in (0usize..4, 0u32..5, 1u64..200, 1.0f64..3.0),
            ops in vec((0u32..10, 0u32..8, 0u32..8, 0u64..300), 1..200),
        ) {
            let (plan, policy, mut reference) = scenario(rates, &links, &outages, policy);
            let mut fabric = LinkFabric::new(plan.clone(), policy);
            for &(op, src, dst, arg) in &ops {
                if op < 2 {
                    let d = SimDuration::from_millis(arg);
                    fabric.advance(d);
                    reference.now = reference.now.saturating_add(d);
                } else {
                    let hops = 1 + (arg % 4) as u32;
                    prop_assert_eq!(
                        fabric.transmit_over(node(src), node(dst), hops),
                        reference.transmit_over(node(src), node(dst), hops)
                    );
                }
                prop_assert_eq!(fabric.now(), reference.now);
                prop_assert_eq!(fabric.down_set(), plan.down_set_at(fabric.now()).as_slice());
            }
            prop_assert_eq!(fabric.stats(), &reference.stats);
            prop_assert_eq!(fabric.next_seq(), reference.seq);
        }

        /// A burst sends exactly the messages that single transmissions
        /// over `FaultPlan::decide` send: random destinations, source
        /// lists mixing local entries (source 8 and up stands for the
        /// destination), off-topology ids and corruption, bursts
        /// interleaved with clock advances and single messages so outage
        /// edges fall between and inside them, under every policy. Every
        /// entry's value and fate, every burst's end, the stats, the next
        /// sequence number, the clock and the dark set match.
        #[test]
        fn bursts_equal_single_messages_over_decide(
            rates in (0u64..10_000, 0.0f64..0.6, 0.0f64..0.3),
            links in vec((0u32..8, 0u32..8, 0.0f64..1.0), 0..4),
            outages in vec((0u32..8, 0u64..3_000, 1u64..800), 0..6),
            policy in (0usize..4, 0u32..5, 1u64..200, 1.0f64..3.0),
            ops in vec((0u32..10, 0u32..8, vec((0u32..11, -4.0f32..4.0), 0..12), 0u64..300), 1..80),
        ) {
            let (plan, policy, mut reference) = scenario(rates, &links, &outages, policy);
            let mut fabric = LinkFabric::new(plan.clone(), policy);
            let hops = |src: NodeId| 1 + src.raw() % 4;
            let (mut lost, mut lost_ref) = (Vec::new(), Vec::new());
            for (op, dst, entries, arg) in &ops {
                let dst = node(*dst);
                if *op < 2 {
                    let d = SimDuration::from_millis(*arg);
                    fabric.advance(d);
                    reference.now = reference.now.saturating_add(d);
                } else if *op < 4 {
                    let src = node((*arg % 8) as u32);
                    prop_assert_eq!(
                        fabric.transmit_over(src, dst, hops(src)),
                        reference.transmit_over(src, dst, hops(src))
                    );
                } else {
                    let srcs: Vec<NodeId> = entries
                        .iter()
                        .map(|&(src, _)| if src < 8 { node(src) } else { dst })
                        .collect();
                    let mut values: Vec<f32> = entries.iter().map(|&(_, v)| v).collect();
                    let mut expected = values.clone();
                    let ended = fabric.transmit_burst(dst, &srcs, &mut values, hops, &mut lost);
                    let ended_ref =
                        reference.transmit_burst(dst, &srcs, &mut expected, hops, &mut lost_ref);
                    prop_assert_eq!(ended, ended_ref);
                    prop_assert_eq!(&lost, &lost_ref);
                    let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&values), bits(&expected));
                }
                prop_assert_eq!(fabric.stats(), &reference.stats);
                prop_assert_eq!(fabric.next_seq(), reference.seq);
                prop_assert_eq!(fabric.now(), reference.now);
                prop_assert_eq!(fabric.down_set(), plan.down_set_at(fabric.now()).as_slice());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// The satellite property: `Retransmit { max_retries: 0 }` is
        /// behaviorally identical to `FailFast` for any plan seed, drop
        /// rate, corruption rate and message stream.
        #[test]
        fn zero_retry_retransmit_is_fail_fast(
            seed in 0u64..10_000,
            drop in 0.0f64..1.0,
            corrupt in 0.0f64..0.5,
            messages in 1usize..400,
            timeout_ms in 1u64..1000,
            backoff in 1.0f64..4.0,
        ) {
            let plan = FaultPlan::uniform(seed, drop)
                .unwrap()
                .with_corruption(corrupt)
                .unwrap();
            let mut ff = LinkFabric::new(plan.clone(), RecoveryPolicy::FailFast);
            let mut rt = LinkFabric::new(plan, RecoveryPolicy::Retransmit {
                max_retries: 0,
                timeout: zeiot_core::time::SimDuration::from_millis(timeout_ms),
                backoff,
            });
            for seq in 0..messages as u64 {
                let src = NodeId::new((seq % 7) as u32);
                let dst = NodeId::new(7 + (seq % 3) as u32);
                let hops = 1 + (seq % 4) as u32;
                prop_assert_eq!(
                    ff.transmit_over(src, dst, hops),
                    rt.transmit_over(src, dst, hops)
                );
            }
            prop_assert_eq!(ff.stats(), rt.stats());
            prop_assert_eq!(ff.now(), rt.now());
        }

        /// A lossless plan delivers everything on the first attempt under
        /// every policy, with identical stats.
        #[test]
        fn lossless_plans_never_touch_messages(
            messages in 1usize..300,
            policy_idx in 0usize..4,
        ) {
            let policy = [
                RecoveryPolicy::FailFast,
                RecoveryPolicy::Retransmit {
                    max_retries: 3,
                    timeout: zeiot_core::time::SimDuration::from_millis(10),
                    backoff: 2.0,
                },
                RecoveryPolicy::Degrade { mode: crate::policy::DegradeMode::ZeroFill },
                RecoveryPolicy::Degrade { mode: crate::policy::DegradeMode::LastValueHold },
            ][policy_idx];
            let mut fabric = LinkFabric::new(FaultPlan::lossless(), policy);
            for seq in 0..messages as u64 {
                let out = fabric.transmit(NodeId::new(0), NodeId::new((seq % 9) as u32));
                prop_assert_eq!(out, Delivery::Delivered { corrupted: false, attempts: 1 });
            }
            prop_assert_eq!(fabric.stats().sent, messages as u64);
            prop_assert_eq!(fabric.stats().delivered, messages as u64);
            prop_assert_eq!(fabric.stats().drops, 0);
            prop_assert_eq!(fabric.now(), SimTime::ZERO);
        }
    }
}
