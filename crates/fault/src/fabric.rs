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
//! prefixes and the probabilities as integer thresholds), what changes
//! only when the clock moves (the nodes dark at `now`, kept as a sorted
//! list and as a bitmap, refreshed on [`LinkFabric::advance`] and after
//! each retry backoff), or what depends only on the link: the first of
//! a drop draw's three hash rounds, which a table keeps for every pair
//! of the node ids the fabric has carried, so a draw costs the two
//! rounds over the sequence number and the attempt. Single messages and
//! bursts roll alike, from the bitmap, the table and the thresholds.
//!
//! [`LinkFabric::transmit_burst`] carries a consumer's messages from many
//! sources in one call: it reads each entry and hands back what became
//! of it through closures, so the consumer needs no list of sources or
//! values. Under a single-attempt policy and a plan without corruption or
//! link overrides, as in every experiment, a burst checks the
//! destination's liveness, reads its row of the table and adds the
//! counters once. Two proptests below drive the fabric, one message at a
//! time and in bursts, against a reference loop written on `decide`;
//! half their plans have no corruption and no overrides.

use crate::plan::{drops, link_round, FaultPlan, LinkEvent, Rolls};
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

/// What one entry of a [`LinkFabric::transmit_burst`] hands its
/// consumer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// The entry's source is the destination: no message, the value as
    /// sent.
    Local(f32),
    /// The message arrived; a corrupted payload is already flipped by
    /// [`FaultPlan::corrupt_value`].
    Delivered(f32),
    /// The message never arrived, under a policy that degrades.
    Lost,
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
    /// `down` as a bitmap: bit `i % 64` of word `i / 64` is set while
    /// node `i` is dark. Sized once to reach the plan's highest node with
    /// an outage window, up to [`DARK_WORDS`] words; a node past it is
    /// looked up in `down`.
    dark: Vec<u64>,
    /// The next instant an outage window opens or closes: `down` holds
    /// until the clock reaches it.
    down_until: SimTime,
    /// Each link's first drop round.
    links: LinkRounds,
}

/// Words the dark-node bitmap takes at most: 65,536 node ids in 8 KB.
const DARK_WORDS: usize = 1024;

/// Whether `node` is dark, from the bitmap `dark` and, for a node past
/// it, the sorted list `down`.
#[inline]
fn is_dark(dark: &[u64], down: &[NodeId], node: NodeId) -> bool {
    let i = node.index();
    match dark.get(i / 64) {
        Some(word) => word >> (i % 64) & 1 == 1,
        None => !down.is_empty() && is_listed(down, node),
    }
}

/// Whether the sorted list `down` holds `node`.
#[cold]
#[inline(never)]
fn is_listed(down: &[NodeId], node: NodeId) -> bool {
    down.binary_search(&node).is_ok()
}

/// A single-attempt burst's loop: entries land in order, `dropped(src,
/// seq)` decides the fate of each message, numbered from `seq`, and the
/// first loss ends the burst when the policy `aborts`. Returns how many
/// messages were sent and how many of them were lost.
#[inline(always)]
fn single_attempt(
    dst: NodeId,
    len: usize,
    mut seq: u64,
    aborts: bool,
    mut entry: impl FnMut(usize) -> (NodeId, f32),
    mut land: impl FnMut(usize, Arrival),
    mut dropped: impl FnMut(NodeId, u64) -> bool,
) -> (u64, u64) {
    let (first, mut lost) = (seq, 0);
    for i in 0..len {
        let (src, value) = entry(i);
        if src == dst {
            land(i, Arrival::Local(value));
            continue;
        }
        let lose = dropped(src, seq);
        seq += 1;
        if !lose {
            land(i, Arrival::Delivered(value));
            continue;
        }
        lost += 1;
        if aborts {
            break;
        }
        land(i, Arrival::Lost);
    }
    (seq - first, lost)
}

/// The first drop round of `src → dst` for a source past the table,
/// whose highest id `past` keeps.
#[cold]
#[inline(never)]
fn round_past_row(prefix: u64, src: NodeId, dst: NodeId, past: &mut u32) -> u64 {
    *past = (*past).max(src.raw());
    link_round(prefix, src.raw(), dst.raw())
}

/// Node ids the link table covers at most: 256², 512 KB.
const TABLE_IDS: usize = 256;

/// Node ids the table covers when the first message arrives, at least.
const FIRST_TABLE_IDS: usize = 16;

/// Each link's first drop round, `link_round(drop prefix, src, dst)`,
/// for every pair of node ids below `n`: row `dst` holds source `src` at
/// `src`, so a burst to one destination reads one row. The table grows
/// to cover every id the fabric carries, doubling, up to `limit`; the
/// round of an id past it is computed when a draw needs it.
#[derive(Debug, Clone)]
struct LinkRounds {
    prefix: u64,
    /// [`TABLE_IDS`], or 0 when the plan draws no drop and no roll reads
    /// the table.
    limit: usize,
    n: usize,
    rounds: Vec<u64>,
}

impl LinkRounds {
    fn new(rolls: &Rolls) -> Self {
        Self {
            prefix: rolls.drop_prefix,
            limit: if rolls.draws_drops() { TABLE_IDS } else { 0 },
            n: 0,
            rounds: Vec::new(),
        }
    }

    /// Grows the table to cover `node`, unless it does or `node` is past
    /// the limit.
    #[inline]
    fn cover(&mut self, node: NodeId) {
        let id = node.index();
        if id >= self.n && id < self.limit {
            self.grow(id);
        }
    }

    /// Rebuilds the table over at least twice as many ids, enough for
    /// `id`: a handful of builds covers any topology up to the limit.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, id: usize) {
        let wanted = (id + 1).next_power_of_two().max(2 * self.n);
        let n = wanted.max(FIRST_TABLE_IDS).min(self.limit);
        self.n = n;
        self.rounds.clear();
        self.rounds.reserve_exact(n * n);
        let ids = 0..n as u32;
        let rounds = ids.flat_map(|dst| (0..n as u32).map(move |src| (src, dst)));
        let prefix = self.prefix;
        self.rounds
            .extend(rounds.map(|(src, dst)| link_round(prefix, src, dst)));
    }

    /// Destination `dst`'s row, source `src` at `src`; empty for a
    /// destination past the table.
    #[inline]
    fn row(&self, dst: NodeId) -> &[u64] {
        let (d, n) = (dst.index(), self.n);
        if d < n {
            self.rounds.get(d * n..(d + 1) * n).unwrap_or(&[])
        } else {
            &[]
        }
    }

    /// The first round of `src → dst`, read from the table.
    #[inline]
    fn round(&mut self, src: NodeId, dst: NodeId) -> u64 {
        let (s, d, n) = (src.index(), dst.index(), self.n);
        let hit = if s < n && d < n {
            self.rounds.get(d * n + s)
        } else {
            None
        };
        match hit {
            Some(&round) => round,
            None => self.round_past(src, dst),
        }
    }

    /// [`LinkRounds::round`] for a pair past the table: grows it to cover
    /// both ids, and computes the round of an id past the limit.
    #[cold]
    #[inline(never)]
    fn round_past(&mut self, src: NodeId, dst: NodeId) -> u64 {
        self.cover(src);
        self.cover(dst);
        match self.row(dst).get(src.index()) {
            Some(&round) => round,
            None => link_round(self.prefix, src.raw(), dst.raw()),
        }
    }
}

impl LinkFabric {
    /// A fabric at simulated time zero with zeroed counters.
    pub fn new(plan: FaultPlan, policy: RecoveryPolicy) -> Self {
        let rolls = plan.rolls();
        // Sized once, so no refresh of the dark set allocates.
        let (nodes, highest) = (plan.outage_nodes().len(), plan.outage_nodes().next_back());
        let words = highest.map_or(0, |node| (node.index() / 64 + 1).min(DARK_WORDS));
        let mut fabric = Self {
            lossless: plan.is_lossless(),
            max_attempts: policy.max_attempts(),
            schedule: policy.retry_schedule(),
            links: LinkRounds::new(&rolls),
            rolls,
            down: Vec::with_capacity(nodes),
            dark: vec![0; words],
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

    /// Moves the clock and, once it reaches a window edge, refreshes the
    /// dark-node list and bitmap in place (the clock never moves back).
    fn set_now(&mut self, now: SimTime) {
        self.now = now;
        if now >= self.down_until {
            self.down_until = self.plan.fill_down_set(now, &mut self.down);
            self.dark.fill(0);
            for node in &self.down {
                let i = node.index();
                if let Some(word) = self.dark.get_mut(i / 64) {
                    *word |= 1 << (i % 64);
                }
            }
        }
    }

    /// The running counters.
    #[inline]
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Counts `substituted` degrade-substituted values.
    #[inline]
    pub fn note_degraded(&mut self, substituted: u64) {
        self.stats.degraded += substituted;
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
    /// after the window ends can succeed. Every attempt's fate comes from
    /// the dark-node bitmap, the link table and the integer thresholds, as
    /// a burst's does.
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
            let (dark, down) = (&self.dark, &self.down);
            let event = if is_dark(dark, down, src) || is_dark(dark, down, dst) {
                LinkEvent::Dropped
            } else {
                let links = &mut self.links;
                let link = || links.round(src, dst);
                self.plan
                    .roll_first(&self.rolls, link, (src, dst), seq, attempt)
            };
            match event {
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

    /// Transmits one consumer's burst of `len` entries to `dst`, in entry
    /// order: `entry(i)` gives entry `i`'s source and value, and `land(i,
    /// arrival)` receives what became of it. An entry whose source is
    /// `dst` lands [`Arrival::Local`]: it takes no sequence number and no
    /// counter. Every other entry is one message, with the sequence
    /// number, fate and counters [`LinkFabric::transmit_over`] gives it
    /// over a route of `hops(src)` hops, and lands
    /// [`Arrival::Delivered`] or [`Arrival::Lost`]. Under a policy that
    /// does not degrade, the first loss ends the burst: that entry does
    /// not land, no later entry is read or sent, and the call returns
    /// `false`.
    ///
    /// Under a single-attempt policy and a plan without corruption or
    /// link overrides, as in every experiment, the burst keeps in locals
    /// what every message reads: the sequence number, the drop threshold,
    /// the dark-node bitmap and `dst`'s row of the link table. It checks
    /// `dst` against the bitmap once, draws nothing when `dst` is dark,
    /// and adds the counters once. Otherwise each message goes through
    /// `transmit_over`: a retransmitting policy's backoffs move the clock,
    /// and no experiment corrupts payloads or overrides a link.
    #[must_use = "`false` means a loss ended the burst"]
    pub fn transmit_burst(
        &mut self,
        dst: NodeId,
        len: usize,
        mut entry: impl FnMut(usize) -> (NodeId, f32),
        mut hops: impl FnMut(NodeId) -> u32,
        mut land: impl FnMut(usize, Arrival),
    ) -> bool {
        let aborts = self.policy.degrade_mode().is_none();
        if self.max_attempts > 1 || !self.rolls.plain() {
            for i in 0..len {
                let (src, value) = entry(i);
                if src == dst {
                    land(i, Arrival::Local(value));
                    continue;
                }
                match self.transmit_over(src, dst, hops(src)) {
                    Delivery::Delivered { corrupted, .. } => {
                        let value = if corrupted {
                            self.plan.corrupt_value(value, src, dst, self.seq - 1)
                        } else {
                            value
                        };
                        land(i, Arrival::Delivered(value));
                    }
                    Delivery::Failed { .. } if aborts => return false,
                    Delivery::Failed { .. } => land(i, Arrival::Lost),
                }
            }
            return true;
        }
        self.links.cover(dst);
        let (dark, down) = (self.dark.as_slice(), self.down.as_slice());
        let (drop, prefix, row) = (self.rolls.drop, self.rolls.drop_prefix, self.links.row(dst));
        // The highest source read past `dst`'s row, for the table to cover.
        let mut past = 0;
        let (sent, lost) = if is_dark(dark, down, dst) {
            // Every message to a dark destination is lost, with no draw.
            single_attempt(dst, len, self.seq, aborts, entry, land, |_, _| true)
        } else {
            let dropped = |src: NodeId, seq| {
                let link = || match row.get(src.index()) {
                    Some(&round) => round,
                    None => round_past_row(prefix, src, dst, &mut past),
                };
                is_dark(dark, down, src) || drops(drop, link, seq, 0)
            };
            single_attempt(dst, len, self.seq, aborts, entry, land, dropped)
        };
        self.seq += sent;
        self.stats.sent += sent;
        self.stats.delivered += sent - lost;
        self.stats.drops += lost;
        self.stats.failed += lost;
        self.links.cover(NodeId::new(past));
        !(aborts && lost > 0)
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
            fabric.note_degraded(1);
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
        /// lands as sent, every other one goes through `transmit_over`,
        /// and a loss ends the burst unless the policy degrades. Returns
        /// whether the burst ran to its end, how many entries it read
        /// and what landed.
        fn transmit_burst(
            &mut self,
            dst: NodeId,
            entries: &[(NodeId, f32)],
            hops: impl Fn(NodeId) -> u32,
        ) -> (bool, usize, Vec<(usize, Arrival)>) {
            let mut landed = Vec::new();
            for (i, &(src, value)) in entries.iter().enumerate() {
                if src == dst {
                    landed.push((i, Arrival::Local(value)));
                    continue;
                }
                match self.transmit_over(src, dst, hops(src)) {
                    Delivery::Delivered { corrupted, .. } => {
                        let value = if corrupted {
                            self.plan.corrupt_value(value, src, dst, self.seq - 1)
                        } else {
                            value
                        };
                        landed.push((i, Arrival::Delivered(value)));
                    }
                    Delivery::Failed { .. } => {
                        if self.policy.degrade_mode().is_none() {
                            return (false, i + 1, landed);
                        }
                        landed.push((i, Arrival::Lost));
                    }
                }
            }
            (true, entries.len(), landed)
        }
    }

    /// Node ids the streams use; the last stands for an id outside any
    /// topology.
    fn node(i: u32) -> NodeId {
        NodeId::new(if i == 7 { 99 } else { i })
    }

    /// A plan from `(seed, drop, corrupt, plain)` rates, `(src, dst, p)`
    /// link overrides and `(node, from ms, length ms)` outages, and a
    /// policy from `(kind, max retries, timeout ms, backoff)`; and a
    /// reference fabric over both. A `plain` plan has no corruption and
    /// no overrides, as every experiment's plan: its draws take the path
    /// that reads only the link table and the default threshold.
    fn scenario(
        (seed, drop, corrupt, plain): (u64, f64, f64, bool),
        links: &[(u32, u32, f64)],
        outages: &[(u32, u64, u64)],
        (kind, max_retries, timeout_ms, backoff): (usize, u32, u64, f64),
    ) -> (FaultPlan, RecoveryPolicy, Reference) {
        let corrupt = if plain { 0.0 } else { corrupt };
        let mut plan = FaultPlan::uniform(seed, drop)
            .unwrap()
            .with_corruption(corrupt)
            .unwrap();
        for &(src, dst, p) in links.iter().filter(|_| !plain) {
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

        /// The fabric's cached constants, dark-node bitmap and link table
        /// decide every attempt exactly as `FaultPlan::decide` does, with
        /// outage edges falling inside retry backoffs and clock advances
        /// interleaved with messages, under every policy, for plans with
        /// and without corruption and link overrides. The off-topology id
        /// grows the link table far past the others.
        #[test]
        fn cached_fabric_equals_decide_reference(
            rates in (0u64..10_000, 0.0f64..0.6, 0.0f64..0.3, proptest::bool::ANY),
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
        /// destination) and off-topology ids, plans with and without
        /// corruption and link overrides, bursts interleaved with clock
        /// advances and single messages so outage edges fall between and
        /// inside them, under every policy. The entries read, what landed
        /// (each entry's fate and value), every burst's end, the stats,
        /// the next sequence number, the clock and the dark set match.
        #[test]
        fn bursts_equal_single_messages_over_decide(
            rates in (0u64..10_000, 0.0f64..0.6, 0.0f64..0.3, proptest::bool::ANY),
            links in vec((0u32..8, 0u32..8, 0.0f64..1.0), 0..4),
            outages in vec((0u32..8, 0u64..3_000, 1u64..800), 0..6),
            policy in (0usize..4, 0u32..5, 1u64..200, 1.0f64..3.0),
            ops in vec((0u32..10, 0u32..8, vec((0u32..11, -4.0f32..4.0), 0..12), 0u64..300), 1..80),
        ) {
            let (plan, policy, mut reference) = scenario(rates, &links, &outages, policy);
            let mut fabric = LinkFabric::new(plan.clone(), policy);
            let hops = |src: NodeId| 1 + src.raw() % 4;
            let bits = |landed: &[(usize, Arrival)]| {
                let bits = |&(i, arrival): &(usize, Arrival)| match arrival {
                    Arrival::Local(v) => (i, 0, v.to_bits()),
                    Arrival::Delivered(v) => (i, 1, v.to_bits()),
                    Arrival::Lost => (i, 2, 0),
                };
                landed.iter().map(bits).collect::<Vec<_>>()
            };
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
                    let entries: Vec<(NodeId, f32)> = entries
                        .iter()
                        .map(|&(src, v)| (if src < 8 { node(src) } else { dst }, v))
                        .collect();
                    let (mut read, mut landed) = (Vec::new(), Vec::new());
                    let entry = |i: usize| {
                        read.push(i);
                        entries[i]
                    };
                    let land = |i, arrival| landed.push((i, arrival));
                    let ended = fabric.transmit_burst(dst, entries.len(), entry, hops, land);
                    let (ended_ref, reads, landed_ref) =
                        reference.transmit_burst(dst, &entries, hops);
                    prop_assert_eq!(ended, ended_ref);
                    prop_assert_eq!(bits(&landed), bits(&landed_ref));
                    prop_assert_eq!(read, (0..reads).collect::<Vec<_>>());
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
