//! Empirical cumulative distribution functions — the y-axis of Figure 2
//! ("cumulative traffic against the number of memory accesses").

/// An empirical CDF over f64 samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    /// Sorted samples.
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds the CDF from samples (NaNs are rejected).
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Cdf {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        assert!(
            sorted.iter().all(|x| !x.is_nan()),
            "NaN samples are not orderable"
        );
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("checked non-NaN"));
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when no samples were provided.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P[X <= x]`.
    pub(crate) fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`0 <= q <= 1`), `None` on an empty CDF.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.sorted.is_empty() {
            return None;
        }
        let idx = ((q * (self.sorted.len() - 1) as f64).round()) as usize;
        Some(self.sorted[idx])
    }

    /// Evaluates the CDF at evenly spaced points across `[lo, hi]` —
    /// the series plotted in Figure 2. Returns `(x, P[X<=x]·100)` pairs
    /// (percent, like the paper's y-axis).
    pub fn series_percent(&self, lo: f64, hi: f64, steps: usize) -> Vec<(f64, f64)> {
        assert!(steps >= 2 && hi > lo, "need a real interval");
        (0..steps)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (steps - 1) as f64;
                (x, 100.0 * self.eval(x))
            })
            .collect()
    }

    /// Fraction of samples inside `[lo, hi)` — the paper's "X% of the
    /// traffic executes between A and B accesses" statements.
    pub fn mass_between(&self, lo: f64, hi: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let a = self.sorted.partition_point(|&s| s < lo);
        let b = self.sorted.partition_point(|&s| s < hi);
        (b - a) as f64 / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cdf() -> Cdf {
        Cdf::from_samples([4.0, 1.0, 2.0, 3.0])
    }

    #[test]
    fn eval_steps() {
        let c = cdf();
        assert_eq!(c.eval(0.5), 0.0);
        assert_eq!(c.eval(1.0), 0.25);
        assert_eq!(c.eval(2.5), 0.5);
        assert_eq!(c.eval(4.0), 1.0);
        assert_eq!(c.eval(99.0), 1.0);
    }

    #[test]
    fn quantiles() {
        let c = cdf();
        assert_eq!(c.quantile(0.0), Some(1.0));
        assert_eq!(c.quantile(1.0), Some(4.0));
        assert_eq!(c.quantile(0.5), Some(3.0));
        assert_eq!(Cdf::from_samples([]).quantile(0.5), None);
    }

    #[test]
    fn series_covers_range() {
        let c = cdf();
        let s = c.series_percent(0.0, 5.0, 6);
        assert_eq!(s.len(), 6);
        assert_eq!(s[0], (0.0, 0.0));
        assert_eq!(s[5], (5.0, 100.0));
        // Monotone non-decreasing.
        assert!(s.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn mass_between_matches_paper_style_claims() {
        let c = Cdf::from_samples((0..100).map(|i| i as f64));
        assert!((c.mass_between(53.0, 67.0) - 0.14).abs() < 1e-12);
        assert_eq!(c.mass_between(200.0, 300.0), 0.0);
        assert_eq!(Cdf::from_samples([]).mass_between(0.0, 1.0), 0.0);
    }

    #[test]
    fn empty_cdf() {
        let c = Cdf::from_samples([]);
        assert!(c.is_empty());
        assert_eq!(c.eval(1.0), 0.0);
    }
}
