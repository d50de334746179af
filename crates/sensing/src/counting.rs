//! People counting from synchronized WSN RSSI (ref \[66\]).
//!
//! Two synchronized observables drive the estimate:
//!
//! * the **inter-node RSSI** falls as bodies obstruct links;
//! * the **surrounding RSSI** rises with the number of personal devices.
//!
//! The estimator learns a Gaussian observation model per occupancy count
//! from labelled calibration data and predicts by maximum likelihood —
//! the paper reports ≈79 % exact accuracy with errors of at most two
//! people in a laboratory deployment.

use serde::{Deserialize, Serialize};
use zeiot_core::error::{ConfigError, Result};

/// The two-dimensional feature extracted from one synchronized
/// measurement round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CountingFeatures {
    /// Mean inter-node RSSI across links (dBm).
    pub mean_inter_node_dbm: f64,
    /// Mean surrounding RSSI across nodes (dBm).
    pub mean_surrounding_dbm: f64,
}

impl CountingFeatures {
    /// Bundles the two means.
    pub fn new(mean_inter_node_dbm: f64, mean_surrounding_dbm: f64) -> Self {
        Self {
            mean_inter_node_dbm,
            mean_surrounding_dbm,
        }
    }

    /// Extracts features from a sampled inter-node matrix and
    /// surrounding vector (as produced by `zeiot_net::rssi`).
    ///
    /// Returns `None` when the matrix has no observed links.
    pub fn extract(inter_node: &[Vec<Option<f64>>], surrounding: &[f64]) -> Option<Self> {
        let links: Vec<f64> = inter_node
            .iter()
            .flat_map(|row| row.iter().flatten().copied())
            .collect();
        if links.is_empty() || surrounding.is_empty() {
            return None;
        }
        Some(Self {
            mean_inter_node_dbm: links.iter().sum::<f64>() / links.len() as f64,
            mean_surrounding_dbm: surrounding.iter().sum::<f64>() / surrounding.len() as f64,
        })
    }

    fn as_array(&self) -> [f64; 2] {
        [self.mean_inter_node_dbm, self.mean_surrounding_dbm]
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ClassModel {
    count: usize,
    mean: [f64; 2],
    var: [f64; 2],
}

/// A maximum-likelihood people counter over per-count Gaussian models.
///
/// See the crate-level example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeopleCounter {
    models: Vec<ClassModel>,
}

impl PeopleCounter {
    /// Fits one diagonal Gaussian per occupancy count present in the
    /// calibration data. A minimum variance floor keeps single-sample
    /// classes usable.
    ///
    /// # Errors
    ///
    /// Returns an error if `training` is empty.
    pub fn fit(training: &[(CountingFeatures, usize)]) -> Result<Self> {
        if training.is_empty() {
            return Err(ConfigError::new("training", "must be non-empty"));
        }
        let max_count = training.iter().map(|&(_, c)| c).max().expect("non-empty");
        let mut models = Vec::new();
        for count in 0..=max_count {
            let samples: Vec<[f64; 2]> = training
                .iter()
                .filter(|&&(_, c)| c == count)
                .map(|(f, _)| f.as_array())
                .collect();
            if samples.is_empty() {
                continue;
            }
            let n = samples.len() as f64;
            let mut mean = [0.0; 2];
            for s in &samples {
                mean[0] += s[0] / n;
                mean[1] += s[1] / n;
            }
            let mut var = [0.0; 2];
            for s in &samples {
                var[0] += (s[0] - mean[0]).powi(2) / n;
                var[1] += (s[1] - mean[1]).powi(2) / n;
            }
            var[0] = var[0].max(0.25);
            var[1] = var[1].max(0.25);
            models.push(ClassModel { count, mean, var });
        }
        Ok(Self { models })
    }

    /// Log-likelihood of `features` under the model of `count`, `None`
    /// when the count was never calibrated.
    pub fn log_likelihood(&self, features: &CountingFeatures, count: usize) -> Option<f64> {
        let model = self.models.iter().find(|m| m.count == count)?;
        let x = features.as_array();
        let mut ll = 0.0;
        for ((xv, mean), var) in x.iter().zip(&model.mean).zip(&model.var) {
            let z = (xv - mean).powi(2) / var;
            ll += -0.5 * (z + var.ln());
        }
        Some(ll)
    }

    /// Maximum-likelihood occupancy estimate.
    pub fn predict(&self, features: &CountingFeatures) -> usize {
        self.models
            .iter()
            .map(|m| {
                (
                    m.count,
                    self.log_likelihood(features, m.count)
                        .expect("model exists"),
                )
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .map(|(c, _)| c)
            .expect("fitted model is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeiot_core::rng::SeedRng;

    /// Synthetic calibration: inter-node RSSI falls ~0.8 dB per person,
    /// surrounding rises ~0.9 dB per device.
    fn calibration(
        rng: &mut SeedRng,
        per_count: usize,
        max: usize,
    ) -> Vec<(CountingFeatures, usize)> {
        let mut out = Vec::new();
        for count in 0..=max {
            for _ in 0..per_count {
                let inter = -60.0 - 0.8 * count as f64 + rng.normal_with(0.0, 0.5);
                let surr = -95.0 + 0.9 * count as f64 + rng.normal_with(0.0, 0.5);
                out.push((CountingFeatures::new(inter, surr), count));
            }
        }
        out
    }

    #[test]
    fn fit_requires_data() {
        assert!(PeopleCounter::fit(&[]).is_err());
    }

    #[test]
    fn predicts_calibrated_counts_well() {
        let mut rng = SeedRng::new(1);
        let train = calibration(&mut rng, 30, 10);
        let counter = PeopleCounter::fit(&train).unwrap();
        let test = calibration(&mut rng, 10, 10);
        let exact = test
            .iter()
            .filter(|(f, c)| counter.predict(f) == *c)
            .count();
        let acc = exact as f64 / test.len() as f64;
        assert!(acc > 0.6, "acc={acc}");
        // Errors are small even when not exact.
        let max_err = test
            .iter()
            .map(|(f, c)| counter.predict(f).abs_diff(*c))
            .max()
            .unwrap();
        assert!(max_err <= 3, "max_err={max_err}");
    }

    #[test]
    fn skips_uncalibrated_counts() {
        let train = vec![
            (CountingFeatures::new(-60.0, -95.0), 0),
            (CountingFeatures::new(-64.0, -91.0), 5),
        ];
        let counter = PeopleCounter::fit(&train).unwrap();
        let counts: Vec<usize> = counter.models.iter().map(|m| m.count).collect();
        assert_eq!(counts, vec![0, 5]);
        assert!(counter
            .log_likelihood(&CountingFeatures::new(-60.0, -95.0), 3)
            .is_none());
    }

    #[test]
    fn prediction_interpolates_between_classes() {
        let mut rng = SeedRng::new(2);
        let train = calibration(&mut rng, 50, 6);
        let counter = PeopleCounter::fit(&train).unwrap();
        // Exactly on the class-3 mean.
        let f = CountingFeatures::new(-60.0 - 2.4, -95.0 + 2.7);
        assert_eq!(counter.predict(&f), 3);
    }

    #[test]
    fn extract_from_matrices() {
        let inter = vec![
            vec![None, Some(-60.0), None],
            vec![Some(-62.0), None, Some(-64.0)],
            vec![None, Some(-66.0), None],
        ];
        let surrounding = vec![-94.0, -95.0, -96.0];
        let f = CountingFeatures::extract(&inter, &surrounding).unwrap();
        assert!((f.mean_inter_node_dbm - (-63.0)).abs() < 1e-9);
        assert!((f.mean_surrounding_dbm - (-95.0)).abs() < 1e-9);
    }

    #[test]
    fn extract_empty_is_none() {
        let inter: Vec<Vec<Option<f64>>> = vec![vec![None, None], vec![None, None]];
        assert!(CountingFeatures::extract(&inter, &[-95.0]).is_none());
        assert!(CountingFeatures::extract(&[vec![Some(-60.0)]], &[]).is_none());
    }

    #[test]
    fn serde_round_trip() {
        let train = vec![
            (CountingFeatures::new(-60.0, -95.0), 0),
            (CountingFeatures::new(-64.0, -91.0), 4),
        ];
        let counter = PeopleCounter::fit(&train).unwrap();
        let json = serde_json::to_string(&counter).unwrap();
        let back: PeopleCounter = serde_json::from_str(&json).unwrap();
        assert_eq!(counter, back);
    }
}
