//! Seeded synthetic routing tables.
//!
//! The paper ran its benchmarks against real forwarding tables; those are
//! not redistributable, so this module generates tables with the familiar
//! shape of a backbone FIB — a prefix-length histogram dominated by /24s,
//! with meaningful /16 and /8 mass — plus tables *derived from a trace's
//! destinations* so every lookup during replay actually walks the tree.

use crate::trie::RadixTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

/// Prefix-length weights loosely following measured BGP tables: most
/// prefixes are /24, then /16..#/23, a little /8.
const LENGTH_WEIGHTS: [(u8, u32); 9] = [
    (8, 2),
    (12, 3),
    (16, 12),
    (18, 6),
    (20, 10),
    (21, 8),
    (22, 10),
    (23, 9),
    (24, 40),
];

/// Synthetic routing table generator.
///
/// # Example
///
/// ```
/// use flowzip_paper::tablegen::TableGen;
///
/// let table = TableGen::new(7).build(1_000);
/// assert!(table.len() >= 900); // collisions may drop a few
/// ```
#[derive(Debug, Clone)]
pub struct TableGen {
    rng: StdRng,
}

impl TableGen {
    /// Creates a generator with a deterministic seed.
    pub fn new(seed: u64) -> TableGen {
        TableGen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn sample_len(&mut self) -> u8 {
        let total: u32 = LENGTH_WEIGHTS.iter().map(|(_, w)| w).sum();
        let mut pick = self.rng.gen_range(0..total);
        for (len, w) in LENGTH_WEIGHTS {
            if pick < w {
                return len;
            }
            pick -= w;
        }
        24
    }

    /// Builds a table of roughly `routes` prefixes (duplicates overwrite,
    /// so the exact count can be slightly lower) with next-hop indices as
    /// values. A default route is always present so no lookup misses.
    pub fn build(&mut self, routes: usize) -> RadixTable<u32> {
        let mut table = RadixTable::new();
        table.insert(Ipv4Addr::UNSPECIFIED, 0, 0);
        for i in 1..=routes {
            let len = self.sample_len();
            let addr: u32 = self.rng.gen();
            table.insert(Ipv4Addr::from(addr), len, (i % 16) as u32 + 1);
        }
        table
    }

    /// Builds a table that *covers* the given destination addresses: for
    /// each sampled destination a /24 (sometimes /16) route is added, plus
    /// background prefixes and a default route. This mirrors how the
    /// paper's benchmarks always resolve trace destinations.
    pub fn build_covering(
        &mut self,
        destinations: impl IntoIterator<Item = Ipv4Addr>,
        background_routes: usize,
    ) -> RadixTable<u32> {
        let mut table = self.build(background_routes);
        for (i, d) in destinations.into_iter().enumerate() {
            let len = if self.rng.gen_bool(0.8) { 24 } else { 16 };
            table.insert(d, len, (i as u32 + 1) % 16 + 1);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = TableGen::new(42).build(500);
        let b = TableGen::new(42).build(500);
        assert_eq!(a.len(), b.len());
        let mut ra: Vec<_> = a.iter().map(|(p, l, v)| (p, l, *v)).collect();
        let mut rb: Vec<_> = b.iter().map(|(p, l, v)| (p, l, *v)).collect();
        ra.sort();
        rb.sort();
        assert_eq!(ra, rb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = TableGen::new(1).build(500);
        let b = TableGen::new(2).build(500);
        let ra: Vec<_> = a.iter().map(|(p, l, _)| (p, l)).collect();
        let rb: Vec<_> = b.iter().map(|(p, l, _)| (p, l)).collect();
        assert_ne!(ra, rb);
    }

    #[test]
    fn default_route_guarantees_a_match() {
        let t = TableGen::new(3).build(100);
        for addr in [Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(250, 1, 1, 1)] {
            assert!(t.lookup(addr).is_some());
        }
    }

    #[test]
    fn covering_table_resolves_destinations_specifically() {
        let dests = vec![
            Ipv4Addr::new(198, 51, 100, 7),
            Ipv4Addr::new(203, 0, 113, 9),
        ];
        let t = TableGen::new(9).build_covering(dests.clone(), 200);
        for d in dests {
            let hop = t.lookup(d).copied().unwrap();
            assert!(hop >= 1, "destination should hit a specific route");
        }
    }

    #[test]
    fn prefix_length_mix_is_dominated_by_slash24() {
        let t = TableGen::new(11).build(5_000);
        let mut by_len = [0usize; 33];
        for (_, l, _) in t.iter() {
            by_len[l as usize] += 1;
        }
        let total: usize = by_len.iter().sum();
        assert!(
            by_len[24] as f64 / total as f64 > 0.25,
            "/24 should dominate, got {}/{}",
            by_len[24],
            total
        );
    }
}
