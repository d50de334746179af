//! Requests and their terminal dispositions.

use zeiot_core::time::SimTime;
use zeiot_nn::tensor::Tensor;

/// Index of a tenant within a [`crate::Server`].
pub type TenantId = usize;

/// One inference request offered to the serving layer.
#[derive(Debug, Clone)]
pub struct Request {
    /// The tenant that issued the request.
    pub tenant: TenantId,
    /// Per-tenant monotone sequence number (0-based arrival order).
    pub seq: u64,
    /// When the request entered the system.
    pub arrival: SimTime,
    /// Absolute completion deadline (arrival + the tenant's relative
    /// deadline).
    pub deadline: SimTime,
    /// The sample to classify.
    pub input: Tensor,
    /// Ground-truth class, when known (drives accuracy accounting).
    pub label: Option<usize>,
}

/// Why admission control turned a request away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RejectReason {
    /// The target shard's bounded queue was full.
    ShardQueueFull,
    /// The tenant already had its maximum number of requests queued.
    TenantLimit,
}

impl RejectReason {
    /// Stable metric-label form of the reason.
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::ShardQueueFull => "shard_queue_full",
            RejectReason::TenantLimit => "tenant_limit",
        }
    }
}

/// Which rung of the degradation ladder produced an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServiceMode {
    /// Exact inference: no fabric, or every message delivered intact.
    Full,
    /// The fabric lost or corrupted messages but a degrade substitution
    /// completed the pass.
    Degraded,
    /// The fabric aborted the pass; the answer came from the shard's
    /// per-tenant stale-result cache.
    Stale,
}

impl ServiceMode {
    /// Stable metric-label form of the mode.
    pub fn label(&self) -> &'static str {
        match self {
            ServiceMode::Full => "full",
            ServiceMode::Degraded => "degraded",
            ServiceMode::Stale => "stale",
        }
    }
}

/// Terminal disposition of one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The request was answered.
    Served {
        /// When the micro-batch carrying it completed.
        completion: SimTime,
        /// The degradation-ladder rung that answered.
        mode: ServiceMode,
        /// The logits the tenant received (exact, degraded, or stale).
        logits: Vec<f32>,
        /// `argmax` of `logits`.
        prediction: usize,
        /// Whether `completion` overran the request's deadline.
        missed_deadline: bool,
    },
    /// Admission control shed the request with a typed reason.
    Shed {
        /// Why it was turned away.
        reason: RejectReason,
    },
    /// The fabric aborted the inference and no fallback could answer.
    Failed,
}

/// A request's identity plus how it ended; [`crate::Server::run`]
/// returns one per offered request, sorted by `(tenant, seq)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The issuing tenant.
    pub tenant: TenantId,
    /// The request's per-tenant sequence number.
    pub seq: u64,
    /// When the request arrived.
    pub arrival: SimTime,
    /// How it ended.
    pub outcome: Outcome,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(RejectReason::ShardQueueFull.label(), "shard_queue_full");
        assert_eq!(RejectReason::TenantLimit.label(), "tenant_limit");
        assert_eq!(ServiceMode::Full.label(), "full");
        assert_eq!(ServiceMode::Degraded.label(), "degraded");
        assert_eq!(ServiceMode::Stale.label(), "stale");
    }
}
