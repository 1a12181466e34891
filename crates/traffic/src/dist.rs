//! Seeded samplers for the distributions the generators share.
//!
//! Kept deliberately dependency-light: plain inverse-transform sampling on
//! top of `rand`'s uniform source, so every generated trace is
//! reproducible from its seed alone.

use rand::Rng;

/// Samples an exponential inter-arrival time with the given mean.
///
/// # Panics
///
/// Panics if `mean` is not strictly positive and finite.
pub fn exponential<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    assert!(mean > 0.0 && mean.is_finite(), "mean must be positive");
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

/// Samples a lognormal value given the *median* and a shape parameter
/// sigma (standard deviation of the underlying normal).
///
/// Used for RTTs: medians of tens of milliseconds with a long tail.
pub fn lognormal<R: Rng>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    assert!(
        median > 0.0 && sigma >= 0.0,
        "median positive, sigma non-negative"
    );
    let n = standard_normal(rng);
    median * (sigma * n).exp()
}

/// Box–Muller standard normal.
fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples a bounded Pareto (power-law) value in `[min, max]` with shape
/// `alpha` — the classic heavy tail for elephant flows.
pub(crate) fn bounded_pareto<R: Rng>(rng: &mut R, alpha: f64, min: f64, max: f64) -> f64 {
    assert!(
        alpha > 0.0 && min > 0.0 && max > min,
        "invalid pareto parameters"
    );
    let u: f64 = rng.gen_range(0.0..1.0);
    let la = min.powf(alpha);
    let ha = max.powf(alpha);
    (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
}

/// Zipf sampler over ranks `0..n` with exponent `s`, built once and
/// sampled by inverse CDF (binary search).
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub(crate) fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank in `0..n` (0 = most popular).
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The flow-size mixture of §3: overwhelmingly short flows (2–50 packets)
/// with a bounded-Pareto elephant tail, calibrated so that ≈98% of flows
/// are short and they carry ≈75% of packets.
#[derive(Debug, Clone)]
pub struct FlowSizeMixture {
    /// Probability that a flow is short (2–50 packets).
    pub short_fraction: f64,
    /// Pareto shape for the long-flow tail.
    pub tail_alpha: f64,
    /// Upper bound on long-flow packet counts.
    pub tail_max: u32,
}

impl Default for FlowSizeMixture {
    fn default() -> Self {
        FlowSizeMixture {
            short_fraction: 0.98,
            tail_alpha: 1.05,
            tail_max: 1_500,
        }
    }
}

impl FlowSizeMixture {
    /// Samples a flow's packet count.
    ///
    /// Short flows are drawn from a discretized geometric-ish mass over
    /// 7–50 (the scripted minimum conversation is 7 packets: handshake,
    /// request, one response segment, two-step teardown + final ack).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u32 {
        if rng.gen_bool(self.short_fraction) {
            // Mice: mass concentrated at small counts (quintic bias).
            let r: f64 = rng.gen_range(0.0..1.0);
            let n = 7.0 + 43.0 * r.powi(5);
            n as u32
        } else {
            let n = bounded_pareto(rng, self.tail_alpha, 51.0, self.tail_max as f64);
            (n as u32).clamp(51, self.tail_max)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = rng();
        let n = 20_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| exponential(&mut r, mean)).sum();
        let got = sum / n as f64;
        assert!((got - mean).abs() < 0.2, "got {got}");
    }

    #[test]
    fn lognormal_median_converges() {
        let mut r = rng();
        let mut vals: Vec<f64> = (0..20_001).map(|_| lognormal(&mut r, 50.0, 0.5)).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = vals[vals.len() / 2];
        assert!((med - 50.0).abs() < 3.0, "median {med}");
        assert!(vals.iter().all(|v| *v > 0.0));
    }

    #[test]
    fn bounded_pareto_stays_in_range() {
        let mut r = rng();
        for _ in 0..10_000 {
            let v = bounded_pareto(&mut r, 1.2, 51.0, 600.0);
            assert!((51.0..=600.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        let mut r = rng();
        let vals: Vec<f64> = (0..20_000)
            .map(|_| bounded_pareto(&mut r, 1.2, 51.0, 600.0))
            .collect();
        let small = vals.iter().filter(|v| **v < 120.0).count() as f64 / vals.len() as f64;
        assert!(small > 0.6, "most mass near the minimum, got {small}");
        assert!(vals.iter().any(|v| *v > 400.0), "tail must reach far");
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let z = Zipf::new(100, 1.0);
        let mut r = rng();
        let mut counts = vec![0u32; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[99] * 10);
        assert_eq!(z.cdf.len(), 100);
    }

    #[test]
    fn zipf_single_rank() {
        let z = Zipf::new(1, 1.2);
        let mut r = rng();
        assert_eq!(z.sample(&mut r), 0);
    }

    #[test]
    fn flow_mixture_hits_papers_marginals() {
        let mix = FlowSizeMixture::default();
        let mut r = rng();
        let sizes: Vec<u32> = (0..50_000).map(|_| mix.sample(&mut r)).collect();
        let short = sizes.iter().filter(|&&n| n <= 50).count() as f64 / sizes.len() as f64;
        assert!(
            (0.96..=0.995).contains(&short),
            "≈98% of flows should be short, got {short}"
        );
        let total_pkts: u64 = sizes.iter().map(|&n| n as u64).sum();
        let short_pkts: u64 = sizes.iter().filter(|&&n| n <= 50).map(|&n| n as u64).sum();
        let share = short_pkts as f64 / total_pkts as f64;
        assert!(
            (0.60..=0.90).contains(&share),
            "short flows should carry roughly 75% of packets, got {share}"
        );
        assert!(sizes.iter().all(|&n| n >= 7));
    }
}
