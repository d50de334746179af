//! Metric labels: who a measurement is about.
//!
//! Every metric family in the [`Recorder`](crate::Recorder) is keyed by
//! `(name, Label)`, so one logical metric (say `microdeep.tx_messages`)
//! fans out into per-node instances that can still be aggregated by name.

use serde::{Deserialize, Serialize};
use std::fmt;
use zeiot_core::id::{DeviceId, NodeId};

/// The entity a metric sample is attributed to.
///
/// Ordering is derived so labels can key `BTreeMap`s; the variant order
/// (global, node, device, subsystem) also fixes the display order in
/// console summaries.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Label {
    /// Not attributed to any particular entity.
    Global,
    /// A mesh sensor node.
    Node {
        /// Raw node id (`NodeId::raw`).
        id: u32,
    },
    /// A backscatter device.
    Device {
        /// Raw device id (`DeviceId::raw`).
        id: u32,
    },
    /// A named subsystem (e.g. `"mac"`, `"engine"`).
    Part {
        /// Subsystem name.
        name: String,
    },
}

impl Label {
    /// Label for a mesh node.
    pub fn node(id: NodeId) -> Self {
        Label::Node { id: id.raw() }
    }

    /// Label for a backscatter device.
    pub fn device(id: DeviceId) -> Self {
        Label::Device { id: id.raw() }
    }

    /// Label for a named subsystem.
    pub fn part(name: impl Into<String>) -> Self {
        Label::Part { name: name.into() }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Global => f.write_str("global"),
            Label::Node { id } => write!(f, "node-{id}"),
            Label::Device { id } => write!(f, "dev-{id}"),
            Label::Part { name } => f.write_str(name),
        }
    }
}

impl From<NodeId> for Label {
    fn from(id: NodeId) -> Self {
        Label::node(id)
    }
}

impl From<DeviceId> for Label {
    fn from(id: DeviceId) -> Self {
        Label::device(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Label::Global.to_string(), "global");
        assert_eq!(Label::node(NodeId::new(3)).to_string(), "node-3");
        assert_eq!(Label::device(DeviceId::new(7)).to_string(), "dev-7");
        assert_eq!(Label::part("mac").to_string(), "mac");
    }

    #[test]
    fn ordering_groups_by_kind() {
        let mut labels = [
            Label::part("mac"),
            Label::node(NodeId::new(1)),
            Label::Global,
            Label::node(NodeId::new(0)),
        ];
        labels.sort();
        assert_eq!(labels[0], Label::Global);
        assert_eq!(labels[1], Label::node(NodeId::new(0)));
        assert_eq!(labels[2], Label::node(NodeId::new(1)));
    }

    #[test]
    fn serde_round_trip() {
        for label in [
            Label::Global,
            Label::node(NodeId::new(9)),
            Label::part("engine"),
        ] {
            let json = serde_json::to_string(&label).unwrap();
            let back: Label = serde_json::from_str(&json).unwrap();
            assert_eq!(back, label);
        }
    }
}
