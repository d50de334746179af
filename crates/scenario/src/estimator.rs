//! The sensing modalities' serve-time classifiers and the class scores
//! every modality hands the fusion engine.
//!
//! Every context-recognition modality is served as a
//! [`zeiot_serve::ServeModel`] tenant and answers with raw class scores
//! that fusion reads as a [`ClassPosterior`]. The three §IV.B sensing
//! estimators are front-ended at scenario-compile time (positioning,
//! counting, localization run on the raw scene; see [`crate::scenario`])
//! and their summary features are classified here by a [`GaussianNb`]
//! whose additive log-likelihoods are exactly what the fusion engine
//! pools. The CNN modality serves a trained `DistributedCnn` directly.

use zeiot_core::id::NodeId;
use zeiot_microdeep::lossy::HopProbe;
use zeiot_microdeep::{LossyRuntime, STAGE_SENSING};
use zeiot_nn::tensor::Tensor;
use zeiot_obs::trace::{SpanEvent, SpanScope};
use zeiot_sensing::GaussianNb;
use zeiot_serve::ServeModel;

/// Unnormalized class log-scores — the lingua franca of the fusion
/// engine. Per-modality scores of independent evidence *add*; any
/// common normalizer is constant across classes and cannot move the
/// argmax, so none is ever applied (keeping fusion a pure, exactly
/// reproducible sum).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassPosterior {
    log_scores: Vec<f64>,
}

impl ClassPosterior {
    /// Wraps raw class log-scores.
    pub fn new(log_scores: Vec<f64>) -> Self {
        Self { log_scores }
    }

    /// The scores, in class order.
    pub fn log_scores(&self) -> &[f64] {
        &self.log_scores
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.log_scores.len()
    }

    /// The maximum-score class; first class wins ties (and the empty /
    /// all-`NEG_INFINITY` degenerate cases resolve to class 0),
    /// matching the workspace argmax convention.
    pub fn argmax(&self) -> usize {
        let mut best = 0usize;
        for (c, score) in self.log_scores.iter().enumerate().skip(1) {
            if score.total_cmp(&self.log_scores[best]) == std::cmp::Ordering::Greater {
                best = c;
            }
        }
        best
    }
}

/// A sensing modality's serve-time classifier: a [`GaussianNb`] over
/// the front-end estimator's summary features, deployable as a
/// [`ServeModel`] tenant whose feature gathers ride the lossy fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct NbActivityEstimator {
    nb: GaussianNb,
    /// Mesh size used to map feature index → producing node when
    /// serving through a fabric: feature `i` is produced at node
    /// `1 + i % (gather_nodes − 1)` and gathered at node 0. With
    /// `gather_nodes ≤ 1` every gather is colocated (free).
    gather_nodes: usize,
}

impl NbActivityEstimator {
    /// Wraps a fitted classifier. `gather_nodes` is the mesh size its
    /// tenant is deployed on (drives the feature→node map above).
    pub fn new(nb: GaussianNb, gather_nodes: usize) -> Self {
        Self { nb, gather_nodes }
    }

    /// The underlying classifier.
    pub fn nb(&self) -> &GaussianNb {
        &self.nb
    }

    fn scores_f32(&self, features: &[f64]) -> Vec<f32> {
        self.nb
            .log_likelihoods(features)
            .into_iter()
            .map(|s| s as f32)
            .collect()
    }
}

impl ServeModel for NbActivityEstimator {
    fn infer(&mut self, input: &Tensor) -> Vec<f32> {
        let features: Vec<f64> = input.data().iter().map(|&v| f64::from(v)).collect();
        self.scores_f32(&features)
    }

    fn infer_lossy(
        &mut self,
        input: &Tensor,
        rt: &mut LossyRuntime,
        scope: Option<&mut SpanScope<'_>>,
    ) -> Option<Vec<f32>> {
        // Gather every feature scalar from its producing node over the
        // fabric, bracketing the burst for a `fusion.gather` hop span
        // (the sensing analogue of the CNN's per-unit hop spans).
        let probe = HopProbe::open(rt);
        let sink = NodeId::new(0);
        let mut features = Vec::with_capacity(input.data().len());
        let mut aborted = false;
        for (i, &raw) in input.data().iter().enumerate() {
            let src = if self.gather_nodes > 1 {
                NodeId::new((1 + i % (self.gather_nodes - 1)) as u32)
            } else {
                sink
            };
            match rt.transport(raw, src, sink, STAGE_SENSING, i, 0) {
                Some(v) => features.push(f64::from(v)),
                None => {
                    aborted = true;
                    break;
                }
            }
        }
        if let Some(scope) = scope {
            if let Some(span) = probe.close(rt, scope, "fusion.gather") {
                if aborted {
                    scope.event(span, rt.fabric().now(), SpanEvent::Aborted);
                }
            }
        }
        if aborted {
            return None;
        }
        Some(self.scores_f32(&features))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nb() -> GaussianNb {
        let training = vec![
            (vec![0.0, 0.0], 0),
            (vec![0.1, -0.1], 0),
            (vec![5.0, 5.0], 1),
            (vec![5.1, 4.9], 1),
        ];
        GaussianNb::fit(&training, 2).expect("non-empty")
    }

    #[test]
    fn posterior_argmax_is_first_tie_wins() {
        assert_eq!(ClassPosterior::new(vec![1.0, 3.0, 3.0]).argmax(), 1);
        assert_eq!(ClassPosterior::new(vec![]).argmax(), 0);
        let ninf = f64::NEG_INFINITY;
        assert_eq!(ClassPosterior::new(vec![ninf, ninf]).argmax(), 0);
    }

    #[test]
    fn nb_estimator_agrees_with_its_classifier() {
        let mut est = NbActivityEstimator::new(nb(), 9);
        let mut obs = Tensor::zeros(vec![2]);
        obs.set(&[0], 4.9);
        obs.set(&[1], 5.2);
        let features = [f64::from(4.9f32), f64::from(5.2f32)];
        let posterior = ClassPosterior::new(est.nb().log_likelihoods(&features));
        assert_eq!(posterior.class_count(), 2);
        assert_eq!(posterior.argmax(), 1);
        assert_eq!(posterior.argmax(), est.nb().predict(&[4.9, 5.2]));
        // Serving returns the classifier's scores, narrowed to f32.
        let served = est.infer(&obs);
        for (s32, s64) in served.iter().zip(posterior.log_scores()) {
            assert_eq!(*s32, *s64 as f32);
        }
    }

    #[test]
    fn lossless_fabric_gather_matches_the_direct_path() {
        use zeiot_core::time::SimDuration;
        use zeiot_fault::{FaultPlan, RecoveryPolicy};
        use zeiot_net::Topology;

        let topo = Topology::grid(3, 3, 2.0, 3.0).expect("valid grid");
        let mut rt = LossyRuntime::new(
            FaultPlan::lossless(),
            RecoveryPolicy::FailFast,
            &topo,
            SimDuration::from_millis(100),
        );
        let mut est = NbActivityEstimator::new(nb(), topo.len());
        let mut obs = Tensor::zeros(vec![2]);
        obs.set(&[0], 0.1);
        obs.set(&[1], 0.0);
        let direct = est.infer(&obs);
        let gathered = est.infer_lossy(&obs, &mut rt, None).expect("lossless");
        assert_eq!(direct, gathered);
        assert!(rt.stats().sent > 0, "gathers crossed the fabric");
    }
}
