//! The seed-deterministic fault plan.
//!
//! A [`FaultPlan`] is a *pure description* of everything that can go
//! wrong on the radio fabric: per-link drop probabilities (fixed rates or
//! derived from the `rf` crate's BER/SNR packet-error model), scheduled
//! node outage windows (crashes and capacitor brownouts), and message
//! corruption. Whether a given message is lost is a pure function of
//! `(plan seed, src, dst, sequence number, attempt, simulated time)` —
//! never of a shared RNG stream — so fault decisions are identical across
//! thread counts, across observed/unobserved runs, and across repeated
//! runs at the same seed.

use std::collections::BTreeMap;
use zeiot_core::error::{ConfigError, Result};
use zeiot_core::id::NodeId;
use zeiot_core::time::SimTime;
use zeiot_core::units::Decibel;
use zeiot_rf::ber::PacketErrorModel;

/// The fate of one transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEvent {
    /// The message arrived intact.
    Delivered,
    /// The message arrived with corrupted payload.
    Corrupted,
    /// The message was lost (link drop or endpoint outage).
    Dropped,
}

/// SplitMix64 finalizer — the same mixing construction the core RNG uses
/// for per-point stream derivation, replicated here so fault decisions
/// stay pure hash evaluations with no RNG state.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes the message coordinates into a uniform `[0, 1)` draw.
fn unit_draw(seed: u64, salt: u64, src: u32, dst: u32, seq: u64, attempt: u32) -> f64 {
    let mut h = splitmix64(seed ^ salt);
    h = splitmix64(h ^ ((u64::from(src) << 32) | u64::from(dst)));
    h = splitmix64(h ^ seq);
    h = splitmix64(h ^ u64::from(attempt));
    // 53 high bits → uniform double in [0, 1).
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const DROP_SALT: u64 = 0xD0_0D;
const CORRUPT_SALT: u64 = 0xC0_44;

/// A deterministic description of link losses, node outages and payload
/// corruption. See the module docs for the determinism contract.
///
/// # Example
///
/// ```
/// use zeiot_core::id::NodeId;
/// use zeiot_core::time::SimTime;
/// use zeiot_fault::{FaultPlan, LinkEvent};
///
/// let plan = FaultPlan::uniform(7, 0.5).unwrap();
/// let a = NodeId::new(0);
/// let b = NodeId::new(1);
/// // Decisions are pure: same coordinates, same outcome, forever.
/// let first = plan.decide(a, b, 0, 0, SimTime::ZERO);
/// assert_eq!(first, plan.decide(a, b, 0, 0, SimTime::ZERO));
///
/// let lossless = FaultPlan::lossless();
/// assert_eq!(lossless.decide(a, b, 0, 0, SimTime::ZERO), LinkEvent::Delivered);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    default_drop: f64,
    corrupt: f64,
    /// Directed per-link overrides of the drop probability.
    link_drop: BTreeMap<(u32, u32), f64>,
    /// Per-node outage windows, half-open `[from, until)`, sorted.
    outages: BTreeMap<u32, Vec<(SimTime, SimTime)>>,
}

impl FaultPlan {
    /// The perfect fabric: nothing drops, nothing corrupts, no outages.
    pub fn lossless() -> Self {
        Self {
            seed: 0,
            default_drop: 0.0,
            corrupt: 0.0,
            link_drop: BTreeMap::new(),
            outages: BTreeMap::new(),
        }
    }

    /// A plan dropping every message with probability `drop_prob` on
    /// every link.
    ///
    /// # Errors
    ///
    /// Returns an error if `drop_prob` is outside `[0, 1]`.
    pub fn uniform(seed: u64, drop_prob: f64) -> Result<Self> {
        zeiot_core::error::require_in_range("drop_prob", drop_prob, 0.0, 1.0)?;
        Ok(Self {
            seed,
            default_drop: drop_prob,
            corrupt: 0.0,
            link_drop: BTreeMap::new(),
            outages: BTreeMap::new(),
        })
    }

    /// Overrides the drop probability of the directed link `src → dst`.
    ///
    /// # Errors
    ///
    /// Returns an error if `drop_prob` is outside `[0, 1]`.
    pub fn with_link_drop(mut self, src: NodeId, dst: NodeId, drop_prob: f64) -> Result<Self> {
        zeiot_core::error::require_in_range("drop_prob", drop_prob, 0.0, 1.0)?;
        self.link_drop.insert((src.raw(), dst.raw()), drop_prob);
        Ok(self)
    }

    /// Derives the directed link's drop probability from the `rf` crate's
    /// packet-error model at the link's SNR — the physically grounded way
    /// to populate a plan (marginal SINR links drop more).
    ///
    /// # Errors
    ///
    /// Never fails in practice; the PER is a probability by construction,
    /// but the signature matches the other builders.
    pub fn with_link_from_rf(
        self,
        src: NodeId,
        dst: NodeId,
        model: &PacketErrorModel,
        snr: Decibel,
    ) -> Result<Self> {
        self.with_link_drop(src, dst, model.per(snr))
    }

    /// Sets the payload-corruption probability of delivered messages.
    ///
    /// # Errors
    ///
    /// Returns an error if `p` is outside `[0, 1]`.
    pub fn with_corruption(mut self, p: f64) -> Result<Self> {
        zeiot_core::error::require_in_range("corruption", p, 0.0, 1.0)?;
        self.corrupt = p;
        Ok(self)
    }

    /// Schedules an outage window `[from, until)` for `node`: every
    /// message to or from the node inside the window is dropped (no
    /// retransmission can succeed while the endpoint is dark).
    ///
    /// # Errors
    ///
    /// Returns an error if the window is empty (`until <= from`).
    pub fn with_outage(mut self, node: NodeId, from: SimTime, until: SimTime) -> Result<Self> {
        if until <= from {
            return Err(ConfigError::new("outage", "window must be non-empty"));
        }
        let windows = self.outages.entry(node.raw()).or_default();
        windows.push((from, until));
        windows.sort();
        Ok(self)
    }

    /// Converts a power-state transition trace (as produced by
    /// `zeiot_energy::IntermittentDevice::power_trace`) into outage
    /// windows for `node`: every off-stretch of the trace, up to
    /// `horizon`, becomes one window. The trace is `(time, is_on)` pairs
    /// in time order; the device is assumed on before the first entry.
    ///
    /// # Errors
    ///
    /// Returns an error if an off-window would be empty, which cannot
    /// happen for a well-formed (time-ordered) trace.
    pub fn with_outages_from_trace(
        mut self,
        node: NodeId,
        trace: &[(SimTime, bool)],
        horizon: SimTime,
    ) -> Result<Self> {
        let mut down_since: Option<SimTime> = None;
        for &(t, is_on) in trace {
            match (is_on, down_since) {
                (false, None) => down_since = Some(t),
                (true, Some(from)) => {
                    if t > from {
                        self = self.with_outage(node, from, t)?;
                    }
                    down_since = None;
                }
                _ => {}
            }
        }
        if let Some(from) = down_since {
            if horizon > from {
                self = self.with_outage(node, from, horizon)?;
            }
        }
        Ok(self)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Drop probability of the directed link `src → dst`.
    pub fn drop_prob(&self, src: NodeId, dst: NodeId) -> f64 {
        self.link_drop
            .get(&(src.raw(), dst.raw()))
            .copied()
            .unwrap_or(self.default_drop)
    }

    /// Whether `node` is inside an outage window at `t`.
    pub fn is_down(&self, node: NodeId, t: SimTime) -> bool {
        self.outages
            .get(&node.raw())
            .is_some_and(|windows| windows.iter().any(|&(from, until)| t >= from && t < until))
    }

    /// Point-query liveness for a controller: whether `node` is inside
    /// an outage window at `t`.
    ///
    /// Unlike [`FaultPlan::decide`], this consumes no per-message fault
    /// coordinates — a re-placement controller can poll it between
    /// passes without perturbing any message's fate (decisions stay
    /// pure functions of `(seed, src, dst, seq, attempt, now)`).
    pub fn node_down_at(&self, node: NodeId, t: SimTime) -> bool {
        self.is_down(node, t)
    }

    /// The scheduled outage windows of `node`, half-open `[from, until)`
    /// in time order. Empty for nodes with no scheduled outages.
    pub fn outage_windows(&self, node: NodeId) -> impl Iterator<Item = (SimTime, SimTime)> + '_ {
        self.outages.get(&node.raw()).into_iter().flatten().copied()
    }

    /// Every node that is dark at `t`, in ascending id order — the
    /// liveness signal a re-placement controller compares across polls
    /// to detect an epoch of change. Deterministic: the outage map is a
    /// `BTreeMap`, so iteration order is the key order.
    pub fn down_set_at(&self, t: SimTime) -> Vec<NodeId> {
        self.outages
            .iter()
            .filter(|(_, windows)| windows.iter().any(|&(from, until)| t >= from && t < until))
            .map(|(&raw, _)| NodeId::new(raw))
            .collect()
    }

    /// Fraction of `[SimTime::ZERO, horizon)` the node spends dark.
    pub fn downtime_fraction(&self, node: NodeId, horizon: SimTime) -> f64 {
        let total = horizon.duration_since(SimTime::ZERO).as_secs_f64();
        if total <= 0.0 {
            return 0.0;
        }
        let dark: f64 = self
            .outages
            .get(&node.raw())
            .map(|windows| {
                windows
                    .iter()
                    .map(|&(from, until)| {
                        let until = until.min(horizon);
                        if until > from {
                            until.duration_since(from).as_secs_f64()
                        } else {
                            0.0
                        }
                    })
                    .sum()
            })
            .unwrap_or(0.0);
        (dark / total).min(1.0)
    }

    /// Whether the plan can never touch a message — the fast path that
    /// lets lossless runs skip hashing entirely.
    pub fn is_lossless(&self) -> bool {
        self.default_drop == 0.0
            && self.corrupt == 0.0
            && self.outages.is_empty()
            && self.link_drop.values().all(|&p| p == 0.0)
    }

    /// Decides the fate of attempt `attempt` of message `seq` over
    /// `src → dst` at simulated time `now`. Pure: the same coordinates
    /// always produce the same outcome.
    pub fn decide(
        &self,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        attempt: u32,
        now: SimTime,
    ) -> LinkEvent {
        if self.is_down(src, now) || self.is_down(dst, now) {
            return LinkEvent::Dropped;
        }
        let p = self.drop_prob(src, dst);
        if p > 0.0 && unit_draw(self.seed, DROP_SALT, src.raw(), dst.raw(), seq, attempt) < p {
            return LinkEvent::Dropped;
        }
        if self.corrupt > 0.0
            && unit_draw(self.seed, CORRUPT_SALT, src.raw(), dst.raw(), seq, attempt) < self.corrupt
        {
            return LinkEvent::Corrupted;
        }
        LinkEvent::Delivered
    }

    /// Deterministically corrupts a payload value: flips one mantissa bit
    /// chosen by the message coordinates. Non-finite results collapse to
    /// zero so corrupted activations cannot poison downstream arithmetic
    /// with NaNs.
    pub fn corrupt_value(&self, value: f32, src: NodeId, dst: NodeId, seq: u64) -> f32 {
        let h = splitmix64(
            self.seed
                ^ CORRUPT_SALT
                ^ splitmix64((u64::from(src.raw()) << 32) | u64::from(dst.raw()))
                ^ seq,
        );
        let bit = (h % 23) as u32; // mantissa bits only
        let corrupted = f32::from_bits(value.to_bits() ^ (1 << bit));
        if corrupted.is_finite() {
            corrupted
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeiot_rf::ber::Modulation;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn lossless_always_delivers() {
        let plan = FaultPlan::lossless();
        assert!(plan.is_lossless());
        for seq in 0..1000 {
            assert_eq!(
                plan.decide(n(0), n(1), seq, 0, SimTime::ZERO),
                LinkEvent::Delivered
            );
        }
    }

    #[test]
    fn certain_drop_always_drops() {
        let plan = FaultPlan::uniform(3, 1.0).unwrap();
        for seq in 0..100 {
            assert_eq!(
                plan.decide(n(0), n(1), seq, 0, SimTime::ZERO),
                LinkEvent::Dropped
            );
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_coordinates() {
        let plan = FaultPlan::uniform(42, 0.3).unwrap();
        let a: Vec<LinkEvent> = (0..500)
            .map(|seq| plan.decide(n(2), n(5), seq, 0, SimTime::ZERO))
            .collect();
        // Interleaving other queries must not change anything.
        let b: Vec<LinkEvent> = (0..500)
            .map(|seq| {
                let _ = plan.decide(n(9), n(1), seq * 7, 3, SimTime::from_secs(8));
                plan.decide(n(2), n(5), seq, 0, SimTime::ZERO)
            })
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn empirical_drop_rate_tracks_probability() {
        let plan = FaultPlan::uniform(7, 0.2).unwrap();
        let drops = (0..20_000)
            .filter(|&seq| plan.decide(n(0), n(1), seq, 0, SimTime::ZERO) == LinkEvent::Dropped)
            .count();
        let rate = drops as f64 / 20_000.0;
        assert!((rate - 0.2).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn different_attempts_reroll_independently() {
        let plan = FaultPlan::uniform(11, 0.5).unwrap();
        let outcomes: Vec<LinkEvent> = (0..8)
            .map(|attempt| plan.decide(n(0), n(1), 0, attempt, SimTime::ZERO))
            .collect();
        assert!(outcomes.contains(&LinkEvent::Delivered));
        assert!(outcomes.contains(&LinkEvent::Dropped));
    }

    #[test]
    fn link_overrides_beat_the_default() {
        let plan = FaultPlan::uniform(1, 0.0)
            .unwrap()
            .with_link_drop(n(3), n(4), 1.0)
            .unwrap();
        assert_eq!(plan.drop_prob(n(3), n(4)), 1.0);
        assert_eq!(plan.drop_prob(n(4), n(3)), 0.0);
        assert_eq!(
            plan.decide(n(3), n(4), 0, 0, SimTime::ZERO),
            LinkEvent::Dropped
        );
        assert_eq!(
            plan.decide(n(4), n(3), 0, 0, SimTime::ZERO),
            LinkEvent::Delivered
        );
    }

    #[test]
    fn rf_derived_rate_matches_packet_error_model() {
        let model = PacketErrorModel::new(Modulation::OqpskDsss802154, 256).unwrap();
        let snr = Decibel::new(1.0);
        let plan = FaultPlan::lossless()
            .with_link_from_rf(n(0), n(1), &model, snr)
            .unwrap();
        assert!((plan.drop_prob(n(0), n(1)) - model.per(snr)).abs() < 1e-12);
        // A marginal link must actually drop messages.
        assert!(plan.drop_prob(n(0), n(1)) > 0.05);
    }

    #[test]
    fn outage_windows_drop_everything_inside() {
        let plan = FaultPlan::lossless()
            .with_outage(n(2), SimTime::from_secs(10), SimTime::from_secs(20))
            .unwrap();
        assert!(!plan.is_lossless());
        assert!(plan.is_down(n(2), SimTime::from_secs(10)));
        assert!(plan.is_down(n(2), SimTime::from_secs(19)));
        assert!(!plan.is_down(n(2), SimTime::from_secs(20)));
        assert!(!plan.is_down(n(2), SimTime::from_secs(9)));
        // Both directions die while the endpoint is dark.
        for (src, dst) in [(n(2), n(0)), (n(0), n(2))] {
            assert_eq!(
                plan.decide(src, dst, 0, 0, SimTime::from_secs(15)),
                LinkEvent::Dropped
            );
            assert_eq!(
                plan.decide(src, dst, 0, 0, SimTime::from_secs(25)),
                LinkEvent::Delivered
            );
        }
        assert!((plan.downtime_fraction(n(2), SimTime::from_secs(40)) - 0.25).abs() < 1e-9);
        assert_eq!(plan.downtime_fraction(n(0), SimTime::from_secs(40)), 0.0);
    }

    #[test]
    fn trace_conversion_builds_off_windows() {
        let trace = [
            (SimTime::from_secs(0), true),
            (SimTime::from_secs(5), false),
            (SimTime::from_secs(8), true),
            (SimTime::from_secs(12), false),
        ];
        let plan = FaultPlan::lossless()
            .with_outages_from_trace(n(1), &trace, SimTime::from_secs(20))
            .unwrap();
        assert!(plan.is_down(n(1), SimTime::from_secs(6)));
        assert!(!plan.is_down(n(1), SimTime::from_secs(9)));
        assert!(plan.is_down(n(1), SimTime::from_secs(15)));
        assert!(!plan.is_down(n(1), SimTime::from_secs(20)));
        let f = plan.downtime_fraction(n(1), SimTime::from_secs(20));
        assert!((f - (3.0 + 8.0) / 20.0).abs() < 1e-9, "f={f}");
    }

    #[test]
    fn liveness_point_queries_respect_window_edges() {
        let plan = FaultPlan::lossless()
            .with_outage(n(3), SimTime::from_secs(10), SimTime::from_secs(20))
            .unwrap()
            .with_outage(n(3), SimTime::from_secs(30), SimTime::from_secs(35))
            .unwrap()
            .with_outage(n(7), SimTime::from_secs(12), SimTime::from_secs(14))
            .unwrap();
        // Half-open [from, until): down at from, up at until, up before.
        assert!(!plan.node_down_at(n(3), SimTime::from_secs(9)));
        assert!(plan.node_down_at(n(3), SimTime::from_secs(10)));
        assert!(plan.node_down_at(n(3), SimTime::from_secs(19)));
        assert!(!plan.node_down_at(n(3), SimTime::from_secs(20)));
        assert!(plan.node_down_at(n(3), SimTime::from_secs(30)));
        assert!(!plan.node_down_at(n(3), SimTime::from_secs(35)));
        // Nodes without scheduled outages are always up.
        assert!(!plan.node_down_at(n(0), SimTime::from_secs(12)));

        let windows: Vec<_> = plan.outage_windows(n(3)).collect();
        assert_eq!(
            windows,
            vec![
                (SimTime::from_secs(10), SimTime::from_secs(20)),
                (SimTime::from_secs(30), SimTime::from_secs(35)),
            ]
        );
        assert_eq!(plan.outage_windows(n(0)).count(), 0);

        // The down-set is the sorted union of per-node liveness.
        assert_eq!(
            plan.down_set_at(SimTime::from_secs(5)),
            Vec::<NodeId>::new()
        );
        assert_eq!(plan.down_set_at(SimTime::from_secs(13)), vec![n(3), n(7)]);
        assert_eq!(plan.down_set_at(SimTime::from_secs(14)), vec![n(3)]);
        assert_eq!(
            plan.down_set_at(SimTime::from_secs(20)),
            Vec::<NodeId>::new()
        );
        // Point queries consume nothing: message fates are unchanged.
        let lossy = FaultPlan::uniform(42, 0.3).unwrap();
        let before: Vec<_> = (0..64)
            .map(|seq| lossy.decide(n(0), n(1), seq, 0, SimTime::ZERO))
            .collect();
        let _ = lossy.node_down_at(n(0), SimTime::ZERO);
        let _ = lossy.down_set_at(SimTime::ZERO);
        let after: Vec<_> = (0..64)
            .map(|seq| lossy.decide(n(0), n(1), seq, 0, SimTime::ZERO))
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn corruption_flips_payloads_deterministically() {
        let plan = FaultPlan::uniform(5, 0.0)
            .unwrap()
            .with_corruption(1.0)
            .unwrap();
        assert_eq!(
            plan.decide(n(0), n(1), 0, 0, SimTime::ZERO),
            LinkEvent::Corrupted
        );
        let v = plan.corrupt_value(1.5, n(0), n(1), 0);
        assert_ne!(v, 1.5);
        assert!(v.is_finite());
        assert_eq!(v, plan.corrupt_value(1.5, n(0), n(1), 0));
    }

    #[test]
    fn invalid_probabilities_are_rejected() {
        assert!(FaultPlan::uniform(0, -0.1).is_err());
        assert!(FaultPlan::uniform(0, 1.5).is_err());
        assert!(FaultPlan::lossless().with_corruption(2.0).is_err());
        assert!(FaultPlan::lossless()
            .with_link_drop(n(0), n(1), f64::NAN)
            .is_err());
        assert!(FaultPlan::lossless()
            .with_outage(n(0), SimTime::from_secs(5), SimTime::from_secs(5))
            .is_err());
    }
}
