//! Composite venue scenarios with reliability-weighted context fusion.
//!
//! The paper's closing argument (§III.B, §V) is that no single sensing
//! modality recognizes a venue's context alone: direct backscatter
//! sensing, indirect wireless sensing, and learned models each see a
//! different slice, and the system-level contribution is *integrating*
//! them. This crate builds that integration layer on top of the
//! workspace's estimators and serving runtime:
//!
//! - [`estimator`] — every modality is a [`zeiot_serve::ServeModel`]
//!   tenant whose class scores fusion reads as a [`ClassPosterior`].
//!   The three §IV.B sensing estimators deploy as naive-Bayes scorers
//!   ([`NbActivityEstimator`], whose feature gathers ride the lossy
//!   fabric); the distributed CNN serves as itself.
//! - [`fusion`] — the deterministic fusion engine:
//!   reliability-weighted log-linear pooling of per-modality class
//!   scores ([`fuse`]), with majority-vote and best-single baselines
//!   ([`FusionPolicy`]), weights driven by live serving signals
//!   ([`reliability_weight`] over degradation-state dwell times and
//!   answer rates), and graceful fallback when a modality goes stale
//!   or fails (zero weight is byte-identical to absence).
//! - [`scenario`] — the venue scenario compiler: declarative
//!   [`Scenario`] specs (train-line rush hour, stadium event day)
//!   compile one shared ground-truth schedule into correlated
//!   observation streams across all four modalities, ready to serve as
//!   [`zeiot_serve`] tenants and score fused-vs-single accuracy.
//!
//! Everything is deterministic: compilation is a pure function of the
//! spec, fusion is a pure fold over evidence in modality order, and
//! the serving path inherits the workspace's total-order guarantees.

pub mod estimator;
pub mod fusion;
pub mod scenario;

pub use estimator::{ClassPosterior, NbActivityEstimator};
pub use fusion::{
    fuse, log_posterior, mode_discount, reliability_weight, Evidence, FusionEngine, FusionPolicy,
    FusionStats, DEFAULT_EVIDENCE_FLOOR,
};
pub use scenario::{CompiledScenario, Modality, ModalityKind, Scenario, Venue, CONTEXT_LEVELS};
