//! Requirements in, schedule and feasibility verdict out.
//!
//! The top of the design-support stack: the application designer states
//! *what* they need ("every sensor's reading at the sink once per
//! second, 256-bit payloads, one channel") and the planner generates
//! *how* — tree, slot schedule, feasibility margin — and re-plans
//! automatically when nodes fail.

use crate::schedule::CollectionSchedule;
use crate::tree::CollectionTree;
use serde::{Deserialize, Serialize};
use zeiot_core::error::{ConfigError, Result};
use zeiot_core::id::NodeId;
use zeiot_core::time::SimDuration;
use zeiot_net::Topology;

/// What the application needs from the network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Requirements {
    /// Required collection cycle: one full round per `cycle`.
    pub cycle: SimDuration,
    /// Payload bits per report.
    pub payload_bits: usize,
    /// Radio bit rate.
    pub bit_rate_bps: f64,
    /// Radio channels available.
    pub channels: usize,
}

impl Requirements {
    /// Airtime of one slot (one report transmission plus a 20 % guard).
    ///
    /// # Panics
    ///
    /// Panics if the bit rate is not positive.
    pub fn slot_airtime(&self) -> SimDuration {
        assert!(self.bit_rate_bps > 0.0, "bit rate must be positive");
        SimDuration::from_secs_f64(self.payload_bits as f64 / self.bit_rate_bps * 1.2)
    }

    fn validate(&self) -> Result<()> {
        if self.cycle.is_zero() {
            return Err(ConfigError::new("cycle", "must be non-zero"));
        }
        if self.payload_bits == 0 {
            return Err(ConfigError::new("payload_bits", "must be non-zero"));
        }
        if !(self.bit_rate_bps > 0.0 && self.bit_rate_bps.is_finite()) {
            return Err(ConfigError::new("bit_rate_bps", "must be positive"));
        }
        if self.channels == 0 {
            return Err(ConfigError::new("channels", "must be non-zero"));
        }
        Ok(())
    }
}

/// The generated plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectionPlan {
    /// The collection tree used.
    pub tree: CollectionTree,
    /// The slot schedule for one round.
    pub schedule: CollectionSchedule,
    /// One round's wall-clock duration.
    pub round_duration: SimDuration,
    /// Whether the round fits within the required cycle.
    pub feasible: bool,
    /// `cycle / round_duration` — >1 means headroom.
    pub margin: f64,
    /// Nodes the plan cannot serve (no route to the sink).
    pub uncovered: Vec<NodeId>,
}

impl CollectionPlan {
    /// The maximum collection rate (rounds per second) this plan
    /// supports.
    pub fn max_rate_hz(&self) -> f64 {
        1.0 / self.round_duration.as_secs_f64()
    }
}

/// The design-support planner for one deployment.
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct Planner {
    topo: Topology,
    sink: NodeId,
}

impl Planner {
    /// Creates a planner for `topo` collecting at `sink`.
    ///
    /// # Errors
    ///
    /// Returns an error if the sink is out of range.
    pub fn new(topo: &Topology, sink: NodeId) -> Result<Self> {
        if sink.index() >= topo.len() {
            return Err(ConfigError::new("sink", "out of range"));
        }
        Ok(Self {
            topo: topo.clone(),
            sink,
        })
    }

    /// The sink.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// Generates a plan for `req` over the healthy topology.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid requirements.
    pub fn plan(&self, req: &Requirements) -> Result<CollectionPlan> {
        req.validate()?;
        self.plan_over(&self.topo, req)
    }

    /// Generates a plan assuming `failed` nodes are dead — the automatic
    /// "(iii) recovery method": rebuild the tree over survivors and
    /// re-schedule.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid requirements or if the sink failed.
    pub fn replan_after_failures(
        &self,
        req: &Requirements,
        failed: &[NodeId],
    ) -> Result<CollectionPlan> {
        req.validate()?;
        if failed.contains(&self.sink) {
            return Err(ConfigError::new("failed", "sink node failed"));
        }
        let degraded = self.topo.without_nodes(failed);
        let mut plan = self.plan_over(&degraded, req)?;
        // Failed nodes are not "uncovered" — they are gone.
        plan.uncovered.retain(|n| !failed.contains(n));
        Ok(plan)
    }

    /// The smallest channel count (up to `max_channels`) meeting the
    /// cycle, if any — the knob §III.B says designers should not have to
    /// turn by hand.
    pub fn minimum_channels(&self, req: &Requirements, max_channels: usize) -> Option<usize> {
        for channels in 1..=max_channels {
            let candidate = Requirements { channels, ..*req };
            if let Ok(plan) = self.plan(&candidate) {
                if plan.feasible {
                    return Some(channels);
                }
            }
        }
        None
    }

    fn plan_over(&self, topo: &Topology, req: &Requirements) -> Result<CollectionPlan> {
        let tree = CollectionTree::build(topo, self.sink)?;
        let schedule = CollectionSchedule::build(topo, &tree, req.channels)?;
        debug_assert!(schedule.verify(topo, &tree).is_ok());
        let round_duration = schedule.round_duration(req.slot_airtime());
        let margin = req.cycle.as_secs_f64() / round_duration.as_secs_f64();
        Ok(CollectionPlan {
            uncovered: tree.unreachable(),
            feasible: round_duration <= req.cycle,
            margin,
            round_duration,
            schedule,
            tree,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(cycle_ms: u64, channels: usize) -> Requirements {
        Requirements {
            cycle: SimDuration::from_millis(cycle_ms),
            payload_bits: 256,
            bit_rate_bps: 250e3,
            channels,
        }
    }

    fn planner() -> Planner {
        let topo = Topology::grid(5, 5, 2.0, 3.0).unwrap();
        Planner::new(&topo, NodeId::new(0)).unwrap()
    }

    #[test]
    fn generous_cycle_is_feasible() {
        let plan = planner().plan(&req(1_000, 1)).unwrap();
        assert!(plan.feasible);
        assert!(plan.margin > 1.0);
        assert!(plan.uncovered.is_empty());
        assert!(plan.max_rate_hz() > 1.0);
    }

    #[test]
    fn impossible_cycle_is_reported_infeasible() {
        let plan = planner().plan(&req(1, 1)).unwrap();
        assert!(!plan.feasible);
        assert!(plan.margin < 1.0);
    }

    #[test]
    fn slot_airtime_includes_guard() {
        let r = req(1_000, 1);
        // 256 bits at 250 kbps = 1.024 ms; +20% = ~1.229 ms.
        let a = r.slot_airtime();
        assert!((a.as_secs_f64() - 1.2288e-3).abs() < 1e-6);
    }

    #[test]
    fn minimum_channels_finds_the_knee() {
        let p = planner();
        // Choose a cycle between the 1-channel and 4-channel round times.
        let one = p.plan(&req(10_000, 1)).unwrap().round_duration;
        let four = p
            .plan(&Requirements {
                channels: 4,
                ..req(10_000, 1)
            })
            .unwrap()
            .round_duration;
        assert!(four <= one);
        if four < one {
            let mid = SimDuration::from_nanos((one.as_nanos() + four.as_nanos()) / 2);
            let tight = Requirements {
                cycle: mid,
                ..req(0, 1)
            };
            let k = p.minimum_channels(&tight, 4);
            assert!(k.is_some());
            assert!(k.unwrap() >= 1 && k.unwrap() <= 4);
        }
        // A hopeless cycle has no feasible channel count.
        let hopeless = Requirements {
            cycle: SimDuration::from_nanos(10),
            ..req(0, 1)
        };
        assert_eq!(p.minimum_channels(&hopeless, 4), None);
    }

    #[test]
    fn replanning_survives_failures() {
        let p = planner();
        let healthy = p.plan(&req(1_000, 1)).unwrap();
        let failed = vec![NodeId::new(1), NodeId::new(7)];
        let repaired = p.replan_after_failures(&req(1_000, 1), &failed).unwrap();
        assert!(repaired.uncovered.is_empty());
        // Fewer reports (two fewer nodes) but possibly longer detours.
        assert_eq!(
            repaired.schedule.total_transmissions(),
            repaired.tree.transmissions_per_round()
        );
        let _ = healthy;
    }

    #[test]
    fn outages_on_ids_outside_the_topology_are_ignored() {
        use zeiot_core::time::SimTime;
        use zeiot_fault::FaultPlan;

        let topo = Topology::grid(3, 3, 2.0, 3.0).unwrap();
        let p = Planner::new(&topo, NodeId::new(0)).unwrap();
        let plan = FaultPlan::lossless()
            .with_outage(NodeId::new(4), SimTime::ZERO, SimTime::from_secs(5))
            .unwrap()
            .with_outage(NodeId::new(99), SimTime::ZERO, SimTime::from_secs(5))
            .unwrap();
        let live = p
            .replan_after_failures(&req(1_000, 1), &plan.down_set_at(SimTime::ZERO))
            .unwrap();
        let explicit = p
            .replan_after_failures(&req(1_000, 1), &[NodeId::new(4)])
            .unwrap();
        assert_eq!(explicit.schedule, live.schedule);
        assert_eq!(explicit.uncovered, live.uncovered);
    }

    #[test]
    fn replanning_rejects_sink_failure() {
        let p = planner();
        assert!(p
            .replan_after_failures(&req(1_000, 1), &[NodeId::new(0)])
            .is_err());
    }

    #[test]
    fn requirement_validation() {
        let p = planner();
        assert!(p
            .plan(&Requirements {
                cycle: SimDuration::ZERO,
                ..req(1, 1)
            })
            .is_err());
        assert!(p
            .plan(&Requirements {
                payload_bits: 0,
                ..req(1_000, 1)
            })
            .is_err());
        assert!(p
            .plan(&Requirements {
                bit_rate_bps: 0.0,
                ..req(1_000, 1)
            })
            .is_err());
        assert!(p
            .plan(&Requirements {
                channels: 0,
                ..req(1_000, 1)
            })
            .is_err());
    }

    #[test]
    fn bad_sink_rejected() {
        let topo = Topology::grid(3, 3, 1.0, 1.5).unwrap();
        assert!(Planner::new(&topo, NodeId::new(9)).is_err());
    }
}
