//! Empirical statistics and reporting utilities for the experiment
//! harness: CDFs (Figure 2), bucketed histograms (Figure 3),
//! Kolmogorov–Smirnov distances (quantifying "the Original and the
//! Decompressed trace show similar behavior"), text tables and
//! gnuplot-style series files.

#![warn(missing_docs)]

pub mod cdf;
pub mod complexity;
pub mod histogram;
pub mod series;
pub mod stream;
pub mod table;

pub use cdf::Cdf;
pub use complexity::TraceComplexity;
pub use histogram::BucketedHistogram;
pub use series::write_dat;
pub use stream::{analyze_archive, ArchivePasses};
pub use table::TextTable;

/// Two-sample Kolmogorov–Smirnov statistic: the maximum vertical gap
/// between the empirical CDFs of `a` and `b` (0 = identical
/// distributions, 1 = disjoint supports).
///
/// Returns 0 when either sample is empty.
pub fn ks_distance(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let ca = Cdf::from_samples(a.iter().copied());
    let cb = Cdf::from_samples(b.iter().copied());
    // Evaluate both CDFs at every jump point of either.
    let mut points: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
    points.sort_by(|x, y| x.partial_cmp(y).expect("no NaN in samples"));
    points.dedup();
    points
        .into_iter()
        .map(|x| (ca.eval(x) - cb.eval(x)).abs())
        .fold(0.0, f64::max)
}

/// Summary statistics of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Standard deviation (population).
    pub stddev: f64,
}

/// Computes summary statistics; `None` for an empty sample.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    Some(Summary {
        count: samples.len(),
        mean,
        min: sorted[0],
        max: sorted[sorted.len() - 1],
        median: sorted[sorted.len() / 2],
        stddev: var.sqrt(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ks_identical_is_zero() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(ks_distance(&a, &a), 0.0);
    }

    #[test]
    fn ks_disjoint_is_one() {
        let a = [1.0, 2.0];
        let b = [10.0, 20.0];
        assert!((ks_distance(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ks_is_symmetric_and_bounded() {
        let a = [1.0, 3.0, 5.0, 7.0, 9.0];
        let b = [2.0, 3.0, 6.0, 7.0];
        let d1 = ks_distance(&a, &b);
        let d2 = ks_distance(&b, &a);
        assert!((d1 - d2).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&d1));
        assert!(d1 > 0.0);
    }

    #[test]
    fn ks_empty_is_zero() {
        assert_eq!(ks_distance(&[], &[1.0]), 0.0);
    }

    #[test]
    fn summary_basics() {
        let s = summarize(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.stddev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.median, 5.0);
        assert!(summarize(&[]).is_none());
    }
}
