//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is a sample that was
//! actually measured (nearest rank), never an interpolation and never a
//! read-out of the program's log₂ telemetry histograms, which are only
//! accurate to a factor of two. A tail percentile is reported only when
//! at least [`MIN_TAIL_SAMPLES`] samples lie beyond it.

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank position (1-based) of quantile `q` in `n` samples:
/// the smallest rank `r` with `r / n >= q`.
pub fn rank(n: usize, q: f64) -> usize {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Number of samples that lie beyond the `q` quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q).min(n)
}

/// Whether `n` samples support reporting the `q` quantile as a tail.
pub fn tail_supported(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= MIN_TAIL_SAMPLES
}

/// A set of raw samples, sorted once on construction. Infinite samples
/// stand for operations that failed: they rank above every finite one.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(values.iter().all(|v| !v.is_nan()), "NaN sample");
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank `q` quantile, or `None` without samples.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted[rank(self.sorted.len(), q) - 1])
    }

    /// The `q` quantile when it is a median or a supported tail.
    pub fn reportable(&self, q: f64) -> Option<f64> {
        if q > 0.5 && !tail_supported(self.len(), q) {
            return None;
        }
        self.quantile(q)
    }

    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// `p50=… p90=… (n=…)` with unsupported tails marked as such.
    pub fn describe(&self, unit: &str) -> String {
        let mut out = String::new();
        for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
            match self.reportable(q) {
                Some(v) if v.is_finite() => out.push_str(&format!("{label}={v:.4}{unit} ")),
                Some(_) => out.push_str(&format!("{label}=failed ")),
                None => out.push_str(&format!("{label}=n/a ")),
            }
        }
        out.push_str(&format!("(n={})", self.len()));
        out
    }
}

/// Median of a non-empty slice of finite values.
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec())
        .median()
        .expect("median of an empty set")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_samples() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.quantile(0.5), Some(50.0));
        assert_eq!(s.quantile(0.9), Some(90.0));
        assert_eq!(s.quantile(0.99), Some(99.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
        let odd = Samples::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(odd.median(), Some(2.0));
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        assert_eq!(beyond(100, 0.9), 10);
        assert!(tail_supported(100, 0.9));
        assert!(!tail_supported(99, 0.9));
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(1000, 0.99));
        let s = Samples::new((0..500).map(f64::from).collect());
        assert!(s.reportable(0.99).is_none());
        assert_eq!(s.reportable(0.9), Some(449.0));
        assert_eq!(s.reportable(0.5), Some(249.0));
    }

    #[test]
    fn failures_rank_above_every_latency() {
        let mut v: Vec<f64> = (0..95).map(f64::from).collect();
        v.extend([f64::INFINITY; 5]);
        let s = Samples::new(v);
        assert_eq!(s.quantile(0.95), Some(94.0));
        assert_eq!(s.quantile(0.96), Some(f64::INFINITY));
        assert!(s.describe("ms").contains("(n=100)"));
    }

    #[test]
    fn empty_sets_report_nothing() {
        let s = Samples::new(Vec::new());
        assert_eq!(s.median(), None);
        assert!(!tail_supported(0, 0.9));
    }
}
