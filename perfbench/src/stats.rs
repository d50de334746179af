//! Order statistics over measured samples, and the FNV-1a digest the
//! output checks use.

use std::fmt;

/// Linear-interpolation quantile of `values`, `q` in `[0, 1]`; NaN when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted_quantile(&sorted, q)
}

fn sorted_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The dispersion every reported metric carries.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub p10: f64,
    pub p90: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = sorted_quantile(&sorted, 0.5);
        let mut deviations: Vec<f64> = sorted.iter().map(|v| (v - median).abs()).collect();
        deviations.sort_by(f64::total_cmp);
        Self {
            median,
            p10: sorted_quantile(&sorted, 0.1),
            p90: sorted_quantile(&sorted, 0.9),
            mad: sorted_quantile(&deviations, 0.5),
            n: sorted.len(),
        }
    }

    pub fn to_json(self) -> String {
        format!(
            "{{\"median\": {}, \"p10\": {}, \"p90\": {}, \"mad\": {}, \"n\": {}}}",
            json_number(self.median),
            json_number(self.p10),
            json_number(self.p90),
            json_number(self.mad),
            self.n
        )
    }
}

/// The median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// One reported metric: its value and the samples it summarizes.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Summary,
}

impl Metric {
    /// A metric whose value is the median of `samples`.
    pub fn median(name: &'static str, unit: &'static str, samples: &[f64]) -> Self {
        let summary = Summary::of(samples);
        Self {
            name,
            unit,
            value: summary.median,
            samples: summary,
        }
    }

    /// A metric with a value of its own next to the samples' summary.
    pub fn with_value(name: &'static str, unit: &'static str, value: f64, samples: &[f64]) -> Self {
        Self {
            name,
            unit,
            value,
            samples: Summary::of(samples),
        }
    }
}

/// A JSON number with every digit Rust prints for the value; `null`
/// for a non-finite value, which JSON cannot carry.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// FNV-1a 64 as a [`fmt::Write`] sink, so a value's `Debug` text is
/// digested as it is formatted instead of being built in memory first.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.1), 1.4);
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.median, s.mad, s.n), (3.0, 2.0, 3));
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::new();
        h.write_str("a").unwrap();
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
