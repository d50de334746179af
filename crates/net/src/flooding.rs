//! Choco-style synchronized flooding (ref \[66\]).
//!
//! The "Choco" platform used by the paper's counting work disseminates and
//! collects data with Glossy-like synchronized transmissions: in slot `k`,
//! every node that decoded the packet in slot `k−1` retransmits
//! simultaneously; constructive interference lets receivers decode, and
//! the whole network is covered in roughly its hop diameter. Crucially
//! for sensing, every node ends the round with tightly synchronized
//! timestamps — the property that makes the inter-node/surrounding RSSI
//! matrices comparable across nodes.

use crate::topology::Topology;
use zeiot_core::error::{require_in_range, Result};
use zeiot_core::id::NodeId;
use zeiot_core::rng::SeedRng;
use zeiot_core::time::SimDuration;

/// Outcome of one synchronized flood round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FloodOutcome {
    /// Slot at which each node first decoded the packet (`None` = never).
    pub first_rx_slot: Vec<Option<usize>>,
    /// Number of slots the round ran.
    pub slots_used: usize,
}

impl FloodOutcome {
    /// Fraction of nodes that received the packet.
    pub fn coverage(&self) -> f64 {
        let got = self.first_rx_slot.iter().filter(|s| s.is_some()).count();
        got as f64 / self.first_rx_slot.len() as f64
    }

    /// Whether every node received the packet.
    pub fn complete(&self) -> bool {
        self.first_rx_slot.iter().all(|s| s.is_some())
    }
}

/// A synchronized flooding protocol instance.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), zeiot_core::ConfigError> {
/// use zeiot_net::flooding::SyncFlood;
/// use zeiot_net::topology::Topology;
/// use zeiot_core::id::NodeId;
/// use zeiot_core::rng::SeedRng;
///
/// let topo = Topology::grid(4, 4, 1.0, 1.1)?;
/// let flood = SyncFlood::new(1.0, 8)?; // lossless links, 8 slots max
/// let mut rng = SeedRng::new(5);
/// let out = flood.run(&topo, NodeId::new(0), &mut rng);
/// assert!(out.complete());
/// // Hop distance bounds the first-reception slot.
/// assert_eq!(out.first_rx_slot[15], Some(6)); // corner-to-corner = 6 hops
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncFlood {
    link_success: f64,
    max_slots: usize,
}

impl SyncFlood {
    /// Creates a flood with per-link, per-slot delivery probability
    /// `link_success` and a slot budget `max_slots`.
    ///
    /// # Errors
    ///
    /// Returns an error if `link_success` is outside `[0, 1]` or
    /// `max_slots` is zero.
    pub fn new(link_success: f64, max_slots: usize) -> Result<Self> {
        let link_success = require_in_range("link_success", link_success, 0.0, 1.0)?;
        zeiot_core::error::require_nonzero_usize("max_slots", max_slots)?;
        Ok(Self {
            link_success,
            max_slots,
        })
    }

    /// Runs one flood round from `initiator`.
    ///
    /// # Panics
    ///
    /// Panics if `initiator` is out of range for `topology`.
    pub fn run(&self, topology: &Topology, initiator: NodeId, rng: &mut SeedRng) -> FloodOutcome {
        let n = topology.len();
        assert!(initiator.index() < n, "initiator out of range");
        let mut first_rx = vec![None; n];
        first_rx[initiator.index()] = Some(0);
        // Nodes that will transmit in the upcoming slot.
        let mut frontier = vec![initiator];
        let mut slots_used = 0;
        for slot in 1..=self.max_slots {
            if frontier.is_empty() {
                break;
            }
            slots_used = slot;
            let mut newly = Vec::new();
            for &tx in &frontier {
                for &rx in topology.neighbors(tx) {
                    if first_rx[rx.index()].is_none() && rng.chance(self.link_success) {
                        first_rx[rx.index()] = Some(slot);
                        newly.push(rx);
                    }
                }
            }
            frontier = newly;
        }
        FloodOutcome {
            first_rx_slot: first_rx,
            slots_used,
        }
    }

    /// Expected duration of a collection round that floods once and then
    /// gathers one report per node: `(diameter_slots + n) × slot`.
    /// Supports the paper's §III.B question of whether a required
    /// collection cycle (k rounds/second) is feasible.
    pub fn round_duration(
        &self,
        node_count: usize,
        diameter_slots: usize,
        slot: SimDuration,
    ) -> SimDuration {
        slot * (diameter_slots + node_count) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_flood_covers_in_hop_distance() {
        let topo = Topology::grid(5, 5, 1.0, 1.1).unwrap();
        let flood = SyncFlood::new(1.0, 20).unwrap();
        let mut rng = SeedRng::new(1);
        let out = flood.run(&topo, NodeId::new(0), &mut rng);
        assert!(out.complete());
        // First reception slot equals hop distance in a lossless flood.
        let routes = crate::routing::RoutingTable::shortest_paths(&topo);
        for i in 0..25u32 {
            assert_eq!(
                out.first_rx_slot[i as usize],
                routes.hop_distance(NodeId::new(0), NodeId::new(i))
            );
        }
    }

    #[test]
    fn zero_success_reaches_nobody_else() {
        let topo = Topology::grid(3, 3, 1.0, 1.1).unwrap();
        let flood = SyncFlood::new(0.0, 10).unwrap();
        let mut rng = SeedRng::new(2);
        let out = flood.run(&topo, NodeId::new(4), &mut rng);
        assert_eq!(out.coverage(), 1.0 / 9.0);
        assert!(!out.complete());
    }

    #[test]
    fn lossy_flood_coverage_increases_with_success() {
        let topo = Topology::grid(6, 6, 1.0, 1.1).unwrap();
        let mut cov = Vec::new();
        for p in [0.3, 0.6, 0.95] {
            let flood = SyncFlood::new(p, 30).unwrap();
            let mut total = 0.0;
            for seed in 0..40 {
                let mut rng = SeedRng::new(seed);
                total += flood.run(&topo, NodeId::new(0), &mut rng).coverage();
            }
            cov.push(total / 40.0);
        }
        assert!(cov[0] < cov[1] && cov[1] < cov[2], "{cov:?}");
    }

    #[test]
    fn slot_budget_truncates() {
        let positions = (0..10)
            .map(|i| zeiot_core::geometry::Point2::new(i as f64, 0.0))
            .collect();
        let topo = Topology::from_positions(positions, 1.1).unwrap();
        let flood = SyncFlood::new(1.0, 3).unwrap();
        let mut rng = SeedRng::new(3);
        let out = flood.run(&topo, NodeId::new(0), &mut rng);
        // Only nodes within 3 hops got it.
        assert_eq!(out.first_rx_slot.iter().filter(|s| s.is_some()).count(), 4);
    }

    #[test]
    fn round_duration_spans_the_diameter_and_every_report() {
        let flood = SyncFlood::new(1.0, 10).unwrap();
        let slot = SimDuration::from_millis(10);
        let round = flood.round_duration(50, 8, slot);
        assert_eq!(round.as_millis(), 580);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(SyncFlood::new(-0.1, 5).is_err());
        assert!(SyncFlood::new(1.1, 5).is_err());
        assert!(SyncFlood::new(0.5, 0).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let topo = Topology::grid(5, 5, 1.0, 1.5).unwrap();
        let flood = SyncFlood::new(0.7, 20).unwrap();
        let run = |seed| {
            let mut rng = SeedRng::new(seed);
            flood.run(&topo, NodeId::new(12), &mut rng)
        };
        assert_eq!(run(77), run(77));
    }
}
