//! RSSI sampling over the mesh.
//!
//! Ref \[66\] measures two RSSI kinds on an already-deployed 802.15.4 WSN:
//!
//! * **inter-node RSSI** — the strength at which node *j* hears node
//!   *i*'s transmission; people standing between the nodes attenuate it;
//! * **surrounding RSSI** — ambient 2.4 GHz energy a node hears when no
//!   sensor node transmits; each personal device (phone) in the room
//!   raises it.
//!
//! This module synthesizes both from the topology, an RF link budget,
//! body shadowing, and the positions of people/devices — the simulation
//! substrate standing in for the paper's deployed laboratory testbed.

use crate::topology::Topology;
use zeiot_core::error::Result;
use zeiot_core::geometry::Point2;
use zeiot_core::id::NodeId;
use zeiot_core::rng::SeedRng;
use zeiot_core::units::{Dbm, Decibel, Hertz};
use zeiot_rf::body::BodyShadowing;
use zeiot_rf::link::LinkBudget;
use zeiot_rf::pathloss::{LogDistance, PathLoss};

/// Synthesizes inter-node and surrounding RSSI for a WSN in a room with
/// people.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), zeiot_core::ConfigError> {
/// use zeiot_net::rssi::RssiSampler;
/// use zeiot_net::topology::Topology;
/// use zeiot_core::geometry::Point2;
/// use zeiot_core::rng::SeedRng;
/// use zeiot_core::id::NodeId;
///
/// let topo = Topology::grid(2, 1, 5.0, 6.0)?;
/// let sampler = RssiSampler::ieee802154(topo)?;
/// let mut rng = SeedRng::new(1);
/// let empty = sampler.inter_node_rssi(&[], &mut rng);
/// let person = vec![Point2::new(2.5, 0.0)]; // standing on the link
/// let mut rng = SeedRng::new(1);
/// let blocked = sampler.inter_node_rssi(&person, &mut rng);
/// let a = empty[0][1].unwrap();
/// let b = blocked[0][1].unwrap();
/// assert!(b < a); // the body attenuates
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RssiSampler {
    topology: Topology,
    budget: LinkBudget<LogDistance>,
    body: BodyShadowing,
    noise_sigma_db: f64,
    ambient_floor_dbm: f64,
    device_tx_dbm: f64,
}

impl RssiSampler {
    /// Creates a sampler with an 802.15.4-typical profile: 0 dBm transmit
    /// power, indoor log-distance loss, default body shadowing, 2 dB
    /// measurement noise, −95 dBm ambient floor, phones at 0 dBm.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from the RF models (none occur for
    /// these constants).
    pub fn ieee802154(topology: Topology) -> Result<Self> {
        let budget = LinkBudget::builder()
            .tx_power(Dbm::new(0.0))
            .frequency(Hertz::from_ghz(2.4))
            .path_loss(LogDistance::indoor_2_4ghz()?)
            .build()?;
        Ok(Self {
            topology,
            budget,
            body: BodyShadowing::default_2_4ghz()?,
            noise_sigma_db: 2.0,
            ambient_floor_dbm: -95.0,
            device_tx_dbm: 0.0,
        })
    }

    /// Overrides the measurement-noise standard deviation (dB).
    ///
    /// # Errors
    ///
    /// Returns an error if `sigma_db` is negative.
    pub fn with_noise_sigma(mut self, sigma_db: f64) -> Result<Self> {
        zeiot_core::error::require_non_negative("sigma_db", sigma_db)?;
        self.noise_sigma_db = sigma_db;
        Ok(self)
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Samples the inter-node RSSI matrix: entry `[i][j]` is the RSSI (in
    /// dBm) at node `j` of node `i`'s transmission, `None` when the nodes
    /// are out of range. People between a pair attenuate that pair's
    /// entries.
    pub fn inter_node_rssi(&self, people: &[Point2], rng: &mut SeedRng) -> Vec<Vec<Option<f64>>> {
        let n = self.topology.len();
        let mut matrix = vec![vec![None; n]; n];
        for (i, row) in matrix.iter_mut().enumerate() {
            let a = NodeId::new(i as u32);
            for &b in self.topology.neighbors(a) {
                let pa = self.topology.position(a);
                let pb = self.topology.position(b);
                let base = self.budget.received_power(pa.distance(pb));
                let shadow = self.body.attenuation(pa, pb, people);
                let noise = Decibel::new(rng.normal_with(0.0, self.noise_sigma_db));
                let rssi = base - shadow + noise;
                row[b.index()] = Some(rssi.value());
            }
        }
        matrix
    }

    /// Samples the surrounding RSSI per node: the ambient floor plus the
    /// aggregate power of personal devices at `device_positions`, each
    /// transmitting at the configured device power with intermittent
    /// activity `duty` in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `duty` is outside `[0, 1]`.
    pub fn surrounding_rssi(
        &self,
        device_positions: &[Point2],
        duty: f64,
        rng: &mut SeedRng,
    ) -> Vec<f64> {
        assert!((0.0..=1.0).contains(&duty), "duty must be in [0,1]");
        let n = self.topology.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let node_pos = self.topology.position(NodeId::new(i as u32));
            // Sum device contributions in linear milliwatts over the floor.
            let mut total_mw = Dbm::new(self.ambient_floor_dbm).to_milliwatt().value();
            for dev in device_positions {
                if !rng.chance(duty) {
                    continue;
                }
                let d = node_pos.distance(*dev).max(0.3);
                let rx = Dbm::new(self.device_tx_dbm) - self.budget.path_loss_model().loss(d);
                total_mw += rx.to_milliwatt().value();
            }
            let noise = rng.normal_with(0.0, self.noise_sigma_db);
            out.push(10.0 * total_mw.log10() + noise);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lab() -> RssiSampler {
        // 4×4 grid, 3 m spacing — roughly a laboratory deployment.
        let topo = Topology::grid(4, 4, 3.0, 4.5).unwrap();
        RssiSampler::ieee802154(topo).unwrap()
    }

    #[test]
    fn matrix_respects_connectivity() {
        let s = lab();
        let mut rng = SeedRng::new(1);
        let m = s.inter_node_rssi(&[], &mut rng);
        for (i, row) in m.iter().enumerate() {
            for (j, entry) in row.iter().enumerate() {
                let connected = s
                    .topology()
                    .connected(NodeId::new(i as u32), NodeId::new(j as u32));
                assert_eq!(entry.is_some(), connected, "pair {i},{j}");
            }
        }
    }

    #[test]
    fn crowding_lowers_mean_inter_node_rssi() {
        let s = lab().with_noise_sigma(0.5).unwrap();
        let mut rng = SeedRng::new(2);
        let mean = |matrix: Vec<Vec<Option<f64>>>| {
            let values: Vec<f64> = matrix.into_iter().flatten().flatten().collect();
            values.iter().sum::<f64>() / values.len() as f64
        };
        let empty = mean(s.inter_node_rssi(&[], &mut rng));
        // 20 people scattered across the room.
        let mut people = Vec::new();
        let mut prng = SeedRng::new(3);
        for _ in 0..20 {
            people.push(Point2::new(
                prng.uniform_range(0.0, 9.0),
                prng.uniform_range(0.0, 9.0),
            ));
        }
        let crowded = mean(s.inter_node_rssi(&people, &mut rng));
        assert!(crowded < empty, "crowded={crowded} empty={empty}");
    }

    #[test]
    fn more_devices_raise_surrounding_rssi() {
        let s = lab().with_noise_sigma(0.5).unwrap();
        let mut rng = SeedRng::new(4);
        let quiet = s.surrounding_rssi(&[], 1.0, &mut rng);
        let mut devices = Vec::new();
        let mut prng = SeedRng::new(5);
        for _ in 0..15 {
            devices.push(Point2::new(
                prng.uniform_range(0.0, 9.0),
                prng.uniform_range(0.0, 9.0),
            ));
        }
        let busy = s.surrounding_rssi(&devices, 1.0, &mut rng);
        let quiet_mean: f64 = quiet.iter().sum::<f64>() / quiet.len() as f64;
        let busy_mean: f64 = busy.iter().sum::<f64>() / busy.len() as f64;
        assert!(
            busy_mean > quiet_mean + 3.0,
            "busy={busy_mean} quiet={quiet_mean}"
        );
    }

    #[test]
    fn zero_duty_devices_are_silent() {
        let s = lab().with_noise_sigma(0.0).unwrap();
        let mut rng = SeedRng::new(6);
        let devices = vec![Point2::new(4.0, 4.0)];
        let silent = s.surrounding_rssi(&devices, 0.0, &mut rng);
        for v in silent {
            assert!((v - (-95.0)).abs() < 0.5, "v={v}");
        }
    }

    #[test]
    fn noise_sigma_zero_is_deterministic_given_people() {
        let s = lab().with_noise_sigma(0.0).unwrap();
        let mut r1 = SeedRng::new(7);
        let mut r2 = SeedRng::new(8);
        let a = s.inter_node_rssi(&[], &mut r1);
        let b = s.inter_node_rssi(&[], &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn unlinked_nodes_have_no_inter_node_rssi() {
        let topo =
            Topology::from_positions(vec![Point2::new(0.0, 0.0), Point2::new(100.0, 0.0)], 1.0)
                .unwrap();
        let s = RssiSampler::ieee802154(topo).unwrap();
        let mut rng = SeedRng::new(9);
        let m = s.inter_node_rssi(&[], &mut rng);
        assert!(m.into_iter().flatten().all(|v| v.is_none()));
    }

    #[test]
    fn negative_noise_sigma_rejected() {
        let r = lab().with_noise_sigma(-1.0);
        assert!(r.is_err());
    }
}
