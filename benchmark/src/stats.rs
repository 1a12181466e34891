//! Order statistics over the samples one run collects.

/// Median, quartiles and sample count of one metric within one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`; panics on an empty slice (a metric with no
    /// sample is a harness bug, not a measurement).
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "metric has no samples");
        Summary {
            median: percentile(samples, 50.0),
            q1: percentile(samples, 25.0),
            q3: percentile(samples, 75.0),
            n: samples.len(),
        }
    }

    /// A value that is counted, not sampled.
    pub fn exact(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

/// The `p`-th percentile (0–100) by linear interpolation between the
/// two nearest order statistics.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// splitmix64: the harness's own seeded generator, so workload shapes
/// and the query battery depend on `--seed` and nothing else.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(s.n, 4);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[1.0, 9.0, 5.0], 50.0), 5.0);
    }

    #[test]
    fn percentile_endpoints_and_p90() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 11.0);
        assert_eq!(percentile(&v, 90.0), 10.0);
    }

    #[test]
    fn splitmix_is_seed_stable() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = SplitMix64::new(8);
        assert_ne!(a[0], r.next_u64());
        assert!((0..100).all(|_| r.next_f64() < 1.0));
    }
}
