//! Address models: Zipf server pools, multiplicative (fractal) address
//! processes, and the LRU stack temporal-locality model.
//!
//! §6.1 of the paper builds its fourth comparison trace from "a
//! multiplicative process ... launched using LRU stack model with an
//! exponential inter-packet time distribution"; these are those pieces.

use crate::dist::Zipf;
use rand::Rng;
use std::net::Ipv4Addr;

/// A fixed pool of server addresses with Zipf popularity — the spatial
/// locality of real Web traffic (few very popular sites).
#[derive(Debug, Clone)]
pub(crate) struct ZipfServerPool {
    servers: Vec<Ipv4Addr>,
    zipf: Zipf,
}

impl ZipfServerPool {
    /// Creates `n` servers with popularity exponent `s`, drawing the
    /// concrete addresses from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub(crate) fn new<R: Rng>(rng: &mut R, n: usize, s: f64) -> ZipfServerPool {
        assert!(n > 0, "server pool cannot be empty");
        let mut servers = Vec::with_capacity(n);
        for _ in 0..n {
            // Public-looking unicast space, avoiding 0/8, 10/8, 127/8.
            let a = rng.gen_range(11u8..=223);
            let addr = Ipv4Addr::new(a, rng.gen(), rng.gen(), rng.gen_range(1..=254));
            servers.push(addr);
        }
        ZipfServerPool {
            servers,
            zipf: Zipf::new(n, s),
        }
    }

    /// Draws a server by popularity.
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> Ipv4Addr {
        self.servers[self.zipf.sample(rng)]
    }
}

/// Multiplicative-cascade address generator: each bit of the 32-bit
/// address is drawn with a level-specific bias, producing the
/// self-similar ("fractal") structure observed in real IP address
/// populations — dense subtrees under popular prefixes, vast empty space
/// elsewhere.
#[derive(Debug, Clone)]
pub(crate) struct FractalAddressModel {
    /// Per-level probability that the bit is 1.
    bias: [f64; 32],
}

impl FractalAddressModel {
    /// Builds the cascade with biases alternating around `p` (a value in
    /// `(0.5, 1)` gives strong clustering; the classic choice is ≈0.7).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    pub(crate) fn new<R: Rng>(rng: &mut R, p: f64) -> FractalAddressModel {
        assert!(p > 0.0 && p < 1.0, "bias must be a probability");
        let mut bias = [0.0f64; 32];
        for b in bias.iter_mut() {
            // Each level independently prefers one side with strength p.
            *b = if rng.gen_bool(0.5) { p } else { 1.0 - p };
        }
        FractalAddressModel { bias }
    }

    /// Draws one address from the cascade.
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> Ipv4Addr {
        let mut addr = 0u32;
        for (level, &p) in self.bias.iter().enumerate() {
            if rng.gen_bool(p) {
                addr |= 1 << (31 - level);
            }
        }
        Ipv4Addr::from(addr)
    }
}

/// LRU stack model of temporal locality: with probability given by a
/// Zipf law over stack depth, the next address is a *re-reference* of a
/// recently used one (moved to the front); otherwise a fresh address is
/// drawn from the underlying model and pushed.
#[derive(Debug, Clone)]
pub(crate) struct LruStackModel {
    stack: Vec<Ipv4Addr>,
    depth_dist: Zipf,
    max_depth: usize,
    /// Probability that a reference is drawn from the stack at all.
    reuse_prob: f64,
}

impl LruStackModel {
    /// Creates the model: `max_depth` bounds the stack, `s` shapes the
    /// stack-distance Zipf, `reuse_prob` is the hit probability once the
    /// stack is warm.
    ///
    /// # Panics
    ///
    /// Panics if `max_depth == 0` or `reuse_prob` is not a probability.
    pub(crate) fn new(max_depth: usize, s: f64, reuse_prob: f64) -> LruStackModel {
        assert!(max_depth > 0, "stack depth must be positive");
        assert!(
            (0.0..=1.0).contains(&reuse_prob),
            "reuse_prob is a probability"
        );
        LruStackModel {
            stack: Vec::with_capacity(max_depth),
            depth_dist: Zipf::new(max_depth, s),
            max_depth,
            reuse_prob,
        }
    }

    /// Draws the next address, using `fresh` to mint new ones.
    pub(crate) fn next<R: Rng>(
        &mut self,
        rng: &mut R,
        mut fresh: impl FnMut(&mut R) -> Ipv4Addr,
    ) -> Ipv4Addr {
        if !self.stack.is_empty() && rng.gen_bool(self.reuse_prob) {
            let depth = self.depth_dist.sample(rng).min(self.stack.len() - 1);
            let addr = self.stack.remove(depth);
            self.stack.insert(0, addr);
            return addr;
        }
        let addr = fresh(rng);
        self.stack.insert(0, addr);
        self.stack.truncate(self.max_depth);
        addr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn server_pool_popularity_is_skewed() {
        let mut r = rng();
        let pool = ZipfServerPool::new(&mut r, 50, 1.1);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(pool.sample(&mut r)).or_insert(0u32) += 1;
        }
        let top = counts.values().max().copied().unwrap();
        let total: u32 = counts.values().sum();
        assert!(
            top as f64 / total as f64 > 0.10,
            "top server should dominate"
        );
        assert_eq!(pool.servers.len(), 50);
    }

    #[test]
    fn server_addresses_avoid_reserved_space() {
        let mut r = rng();
        let pool = ZipfServerPool::new(&mut r, 200, 1.0);
        for s in &pool.servers {
            let o = s.octets();
            assert!(o[0] >= 11 && o[0] <= 223, "{s}");
            assert!(o[3] != 0 && o[3] != 255);
        }
    }

    #[test]
    fn fractal_addresses_cluster_in_prefixes() {
        let mut r = rng();
        let model = FractalAddressModel::new(&mut r, 0.75);
        let addrs: Vec<u32> = (0..8_000)
            .map(|_| u32::from(model.sample(&mut r)))
            .collect();
        // Concentration: the 10 most popular /8s must hold far more mass
        // than the uniform 10/256 ≈ 4%.
        let mut counts = std::collections::HashMap::new();
        for a in &addrs {
            *counts.entry(a >> 24).or_insert(0usize) += 1;
        }
        let mut by_count: Vec<usize> = counts.values().copied().collect();
        by_count.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = by_count.iter().take(10).sum();
        let share = top10 as f64 / addrs.len() as f64;
        assert!(
            share > 0.35,
            "cascade should concentrate mass in few /8s, top-10 share {share}"
        );
    }

    #[test]
    fn fractal_is_deterministic_per_seed() {
        let mut r1 = rng();
        let m1 = FractalAddressModel::new(&mut r1, 0.7);
        let mut r2 = rng();
        let m2 = FractalAddressModel::new(&mut r2, 0.7);
        let a: Vec<Ipv4Addr> = (0..10).map(|_| m1.sample(&mut r1)).collect();
        let b: Vec<Ipv4Addr> = (0..10).map(|_| m2.sample(&mut r2)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn lru_stack_rereferences_recent_addresses() {
        let mut r = rng();
        let mut model = LruStackModel::new(64, 1.0, 0.8);
        let mut seen = Vec::new();
        let mut reuses = 0;
        for _ in 0..5_000 {
            let a = model.next(&mut r, |rr| Ipv4Addr::from(rr.gen::<u32>()));
            if seen.contains(&a) {
                reuses += 1;
            }
            seen.push(a);
        }
        assert!(
            reuses > 2_000,
            "strong temporal locality expected, got {reuses}"
        );
        assert!(model.stack.len() <= 64);
    }

    #[test]
    fn lru_stack_with_zero_reuse_is_all_fresh() {
        let mut r = rng();
        let mut model = LruStackModel::new(16, 1.0, 0.0);
        let mut set = std::collections::HashSet::new();
        for _ in 0..1_000 {
            set.insert(model.next(&mut r, |rr| Ipv4Addr::from(rr.gen::<u32>())));
        }
        assert!(set.len() > 990, "collisions only by chance");
    }
}
