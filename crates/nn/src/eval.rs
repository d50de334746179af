//! Classification evaluation: confusion matrices, accuracy, per-class
//! precision/recall/F-measure.
//!
//! Shared by every recognition experiment in the workspace — the paper
//! reports accuracy for E1/E2/E5/E6 and F-measure for the three-level
//! congestion estimation (E4).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A square confusion matrix over `n` classes.
///
/// # Example
///
/// ```
/// use zeiot_nn::eval::ConfusionMatrix;
///
/// let mut cm = ConfusionMatrix::new(2);
/// cm.record(0, 0);
/// cm.record(0, 0);
/// cm.record(1, 1);
/// cm.record(1, 0); // one mistake: true 1 predicted 0
/// assert_eq!(cm.total(), 4);
/// assert!((cm.accuracy() - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    classes: usize,
    /// `counts[true][predicted]`
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix over `classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero.
    pub fn new(classes: usize) -> Self {
        assert!(classes > 0, "need at least one class");
        Self {
            classes,
            counts: vec![0; classes * classes],
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Records one `(true, predicted)` observation.
    ///
    /// # Panics
    ///
    /// Panics if either label is out of range.
    pub fn record(&mut self, truth: usize, predicted: usize) {
        assert!(
            truth < self.classes && predicted < self.classes,
            "label out of range"
        );
        self.counts[truth * self.classes + predicted] += 1;
    }

    /// Count for a `(true, predicted)` cell.
    ///
    /// # Panics
    ///
    /// Panics if either label is out of range.
    pub fn count(&self, truth: usize, predicted: usize) -> u64 {
        assert!(
            truth < self.classes && predicted < self.classes,
            "label out of range"
        );
        self.counts[truth * self.classes + predicted]
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall accuracy; 0 when empty.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.classes).map(|c| self.count(c, c)).sum();
        correct as f64 / total as f64
    }

    /// Precision of class `c` (`None` when the class was never
    /// predicted).
    pub fn precision(&self, c: usize) -> Option<f64> {
        let predicted: u64 = (0..self.classes).map(|t| self.count(t, c)).sum();
        if predicted == 0 {
            None
        } else {
            Some(self.count(c, c) as f64 / predicted as f64)
        }
    }

    /// Recall of class `c` (`None` when the class never occurred).
    pub fn recall(&self, c: usize) -> Option<f64> {
        let actual: u64 = (0..self.classes).map(|p| self.count(c, p)).sum();
        if actual == 0 {
            None
        } else {
            Some(self.count(c, c) as f64 / actual as f64)
        }
    }

    /// F1 measure of class `c` (`None` when precision or recall is
    /// undefined or both are zero).
    pub fn f1(&self, c: usize) -> Option<f64> {
        let p = self.precision(c)?;
        let r = self.recall(c)?;
        if p + r == 0.0 {
            None
        } else {
            Some(2.0 * p * r / (p + r))
        }
    }

    /// Macro-averaged F1 over all classes with defined F1 (the paper's
    /// congestion F-measure averages the three congestion levels).
    pub fn macro_f1(&self) -> Option<f64> {
        let scores: Vec<f64> = (0..self.classes).filter_map(|c| self.f1(c)).collect();
        if scores.is_empty() {
            None
        } else {
            Some(scores.iter().sum::<f64>() / scores.len() as f64)
        }
    }

    /// Mean absolute error when class labels are ordinal counts (used for
    /// the people-counting experiment: "errors up to two people").
    pub fn mean_absolute_error(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let mut err = 0.0;
        for t in 0..self.classes {
            for p in 0..self.classes {
                err += self.count(t, p) as f64 * (t as f64 - p as f64).abs();
            }
        }
        err / total as f64
    }

    /// Fraction of observations whose ordinal error is at most `k`.
    pub fn within_k(&self, k: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let mut ok = 0u64;
        for t in 0..self.classes {
            for p in 0..self.classes {
                if t.abs_diff(p) <= k {
                    ok += self.count(t, p);
                }
            }
        }
        ok as f64 / total as f64
    }

    /// Merges another matrix into this one.
    ///
    /// # Panics
    ///
    /// Panics if class counts differ.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        assert_eq!(self.classes, other.classes, "class count mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "confusion ({} classes, acc {:.3}):",
            self.classes,
            self.accuracy()
        )?;
        for t in 0..self.classes {
            write!(f, "  true {t}:")?;
            for p in 0..self.classes {
                write!(f, " {:>6}", self.count(t, p))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConfusionMatrix {
        let mut cm = ConfusionMatrix::new(3);
        // true 0: 8 correct, 2 as class 1
        for _ in 0..8 {
            cm.record(0, 0);
        }
        for _ in 0..2 {
            cm.record(0, 1);
        }
        // true 1: 7 correct, 3 as class 2
        for _ in 0..7 {
            cm.record(1, 1);
        }
        for _ in 0..3 {
            cm.record(1, 2);
        }
        // true 2: all 10 correct
        for _ in 0..10 {
            cm.record(2, 2);
        }
        cm
    }

    #[test]
    fn accuracy_and_total() {
        let cm = sample();
        assert_eq!(cm.total(), 30);
        assert!((cm.accuracy() - 25.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn precision_recall_f1() {
        let cm = sample();
        // Class 1: predicted 9 times (7 correct + 2 from class 0); actual 10.
        assert!((cm.precision(1).unwrap() - 7.0 / 9.0).abs() < 1e-12);
        assert!((cm.recall(1).unwrap() - 0.7).abs() < 1e-12);
        let p = 7.0 / 9.0;
        let r = 0.7;
        assert!((cm.f1(1).unwrap() - 2.0 * p * r / (p + r)).abs() < 1e-12);
    }

    #[test]
    fn undefined_metrics_are_none() {
        let mut cm = ConfusionMatrix::new(3);
        cm.record(0, 0);
        // Class 2 never occurs and is never predicted.
        assert!(cm.precision(2).is_none());
        assert!(cm.recall(2).is_none());
        assert!(cm.f1(2).is_none());
    }

    #[test]
    fn macro_f1_averages_defined_classes() {
        let cm = sample();
        let f = cm.macro_f1().unwrap();
        assert!(f > 0.7 && f < 1.0);
    }

    #[test]
    fn ordinal_error_metrics() {
        let mut cm = ConfusionMatrix::new(5);
        cm.record(2, 2); // error 0
        cm.record(2, 3); // error 1
        cm.record(0, 4); // error 4
        assert!((cm.mean_absolute_error() - 5.0 / 3.0).abs() < 1e-12);
        assert!((cm.within_k(1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((cm.within_k(4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.total(), 60);
        assert!((a.accuracy() - 25.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_is_well_behaved() {
        let cm = ConfusionMatrix::new(2);
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.mean_absolute_error(), 0.0);
        assert!(cm.macro_f1().is_none());
    }

    #[test]
    #[should_panic]
    fn out_of_range_label_panics() {
        let mut cm = ConfusionMatrix::new(2);
        cm.record(2, 0);
    }

    #[test]
    fn display_contains_accuracy() {
        let cm = sample();
        let s = cm.to_string();
        assert!(s.contains("acc 0.833"));
    }
}
