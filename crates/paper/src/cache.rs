//! One cache level: set-associative, configurable replacement — the
//! cache model behind §6's per-packet miss rates (the paper measured them
//! with ATOM-instrumented binaries; [`crate::meter`] splits this cache's
//! counters per packet).
//!
//! # Example
//!
//! ```
//! use flowzip_paper::cache::{Cache, CacheConfig};
//!
//! let mut l1 = Cache::new(CacheConfig::netbench_l1());
//! let miss_first = !l1.access(0x1000).hit;
//! let hit_second = l1.access(0x1000).hit;
//! assert!(miss_first && hit_second);
//! ```

use std::fmt;

/// Replacement policy for a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Replacement {
    /// Evict the least recently used line (default; what the paper-era
    /// L1s approximated).
    #[default]
    Lru,
    /// Evict the oldest-filled line.
    Fifo,
    /// Evict a pseudo-random line (deterministic xorshift).
    Random,
}

/// Geometry and policy of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a power of two.
    pub size_bytes: u32,
    /// Line (block) size in bytes. Must be a power of two.
    pub line_bytes: u32,
    /// Ways per set. Must divide `size_bytes / line_bytes`.
    pub associativity: u32,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// A Netbench-era L1 data cache: 16 KiB, 2-way, 32-byte lines.
    pub fn netbench_l1() -> CacheConfig {
        CacheConfig {
            size_bytes: 16 * 1024,
            line_bytes: 32,
            associativity: 2,
            replacement: Replacement::Lru,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u32 {
        self.size_bytes / (self.line_bytes * self.associativity)
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.size_bytes.is_power_of_two() {
            return Err(format!("size {} not a power of two", self.size_bytes));
        }
        if !self.line_bytes.is_power_of_two() || self.line_bytes == 0 {
            return Err(format!("line size {} not a power of two", self.line_bytes));
        }
        if self.associativity == 0 {
            return Err("associativity must be positive".into());
        }
        let lines = self.size_bytes / self.line_bytes;
        if lines == 0 || !lines.is_multiple_of(self.associativity) {
            return Err(format!(
                "associativity {} does not divide {} lines",
                self.associativity, lines
            ));
        }
        if !(lines / self.associativity).is_power_of_two() {
            return Err("set count must be a power of two".into());
        }
        Ok(())
    }
}

/// Outcome of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was present.
    pub hit: bool,
    /// Whether a valid line was evicted to make room.
    pub evicted: bool,
}

/// Aggregate counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Valid lines evicted.
    pub evictions: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; zero when nothing was accessed.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} misses ({:.2}%)",
            self.accesses,
            self.misses,
            100.0 * self.miss_rate()
        )
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    /// LRU timestamp or FIFO fill order, depending on policy.
    stamp: u64,
}

/// A single simulated cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>, // sets * ways, row-major by set
    tick: u64,
    rng_state: u64,
    stats: CacheStats,
    set_shift: u32,
    set_mask: u64,
}

impl Cache {
    /// Builds a cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`CacheConfig::validate`] to check first.
    pub fn new(config: CacheConfig) -> Cache {
        config.validate().expect("valid cache configuration");
        let sets = config.num_sets();
        Cache {
            config,
            lines: vec![Line::default(); (sets * config.associativity) as usize],
            tick: 0,
            rng_state: 0x9E37_79B9_7F4A_7C15,
            stats: CacheStats::default(),
            set_shift: config.line_bytes.trailing_zeros(),
            set_mask: (sets - 1) as u64,
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets counters (contents stay warm).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidates all lines and clears statistics.
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            *l = Line::default();
        }
        self.stats = CacheStats::default();
        self.tick = 0;
    }

    /// Simulates one access (reads and writes behave identically in this
    /// allocate-on-miss model).
    pub fn access(&mut self, addr: u64) -> AccessResult {
        self.tick += 1;
        self.stats.accesses += 1;
        let set = ((addr >> self.set_shift) & self.set_mask) as usize;
        let tag = addr >> self.set_shift >> self.set_mask.count_ones();
        let ways = self.config.associativity as usize;
        let base = set * ways;
        let slice = &mut self.lines[base..base + ways];

        if let Some(line) = slice.iter_mut().find(|l| l.valid && l.tag == tag) {
            if self.config.replacement == Replacement::Lru {
                line.stamp = self.tick;
            }
            return AccessResult {
                hit: true,
                evicted: false,
            };
        }
        self.stats.misses += 1;

        // Miss: fill an invalid way, else evict per policy.
        let victim = if let Some(i) = slice.iter().position(|l| !l.valid) {
            i
        } else {
            match self.config.replacement {
                Replacement::Lru | Replacement::Fifo => {
                    let mut idx = 0;
                    let mut oldest = u64::MAX;
                    for (i, l) in slice.iter().enumerate() {
                        if l.stamp < oldest {
                            oldest = l.stamp;
                            idx = i;
                        }
                    }
                    idx
                }
                Replacement::Random => {
                    self.rng_state ^= self.rng_state << 13;
                    self.rng_state ^= self.rng_state >> 7;
                    self.rng_state ^= self.rng_state << 17;
                    (self.rng_state % ways as u64) as usize
                }
            }
        };
        let evicted = slice[victim].valid;
        if evicted {
            self.stats.evictions += 1;
        }
        slice[victim] = Line {
            tag,
            valid: true,
            stamp: self.tick,
        };
        AccessResult {
            hit: false,
            evicted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(assoc: u32, policy: Replacement) -> Cache {
        // 4 lines of 16 bytes => 64-byte cache.
        Cache::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            associativity: assoc,
            replacement: policy,
        })
    }

    #[test]
    fn config_validation() {
        assert!(CacheConfig::netbench_l1().validate().is_ok());
        assert!(CacheConfig {
            size_bytes: 100, // not a power of two
            line_bytes: 32,
            associativity: 2,
            replacement: Replacement::Lru,
        }
        .validate()
        .is_err());
        assert!(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            associativity: 3, // doesn't divide 4 lines
            replacement: Replacement::Lru,
        }
        .validate()
        .is_err());
        assert!(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            associativity: 0,
            replacement: Replacement::Lru,
        }
        .validate()
        .is_err());
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny(1, Replacement::Lru);
        assert!(!c.access(0x100).hit);
        assert!(c.access(0x100).hit);
        assert!(c.access(0x10F).hit, "same 16-byte line");
        assert!(!c.access(0x110).hit, "next line");
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut c = tiny(1, Replacement::Lru);
        // 4 sets of 16 bytes: addresses 0x0 and 0x40 share set 0.
        assert!(!c.access(0x00).hit);
        assert!(!c.access(0x40).hit);
        assert!(!c.access(0x00).hit, "evicted by conflict");
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn two_way_avoids_simple_conflict() {
        let mut c = tiny(2, Replacement::Lru);
        // 2 sets: 0x00 and 0x40 now coexist in one set.
        assert!(!c.access(0x00).hit);
        assert!(!c.access(0x40).hit);
        assert!(c.access(0x00).hit);
        assert!(c.access(0x40).hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2, Replacement::Lru);
        c.access(0x00); // set 0
        c.access(0x40); // set 0
        c.access(0x00); // touch A again
        c.access(0x80); // evicts 0x40 (LRU), not 0x00
        assert!(c.access(0x00).hit);
        assert!(!c.access(0x40).hit);
    }

    #[test]
    fn fifo_evicts_first_filled() {
        let mut c = tiny(2, Replacement::Fifo);
        c.access(0x00);
        c.access(0x40);
        c.access(0x00); // does NOT refresh under FIFO
        c.access(0x80); // evicts 0x00 (first in)
        assert!(c.access(0x40).hit);
        assert!(!c.access(0x00).hit);
    }

    #[test]
    fn random_policy_is_deterministic_per_instance() {
        let run = || {
            let mut c = tiny(2, Replacement::Random);
            let mut pattern = Vec::new();
            for i in 0..50u64 {
                pattern.push(c.access((i % 6) * 0x40).hit);
            }
            pattern
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn flush_and_reset() {
        let mut c = tiny(1, Replacement::Lru);
        c.access(0x0);
        c.access(0x0);
        assert_eq!(c.stats().accesses, 2);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(0x0).hit, "contents survive reset_stats");
        c.flush();
        assert!(!c.access(0x0).hit, "flush invalidates");
    }

    #[test]
    fn working_set_within_capacity_converges_to_hits() {
        let mut c = Cache::new(CacheConfig::netbench_l1());
        // 8 KiB working set in a 16 KiB cache: second pass all hits.
        for pass in 0..2 {
            for addr in (0..8 * 1024u64).step_by(32) {
                let r = c.access(addr);
                if pass == 1 {
                    assert!(r.hit, "addr {addr:#x} should hit on pass 2");
                }
            }
        }
        let s = c.stats();
        assert_eq!(s.misses, 256); // 8 KiB / 32 B cold misses only
    }

    #[test]
    fn streaming_working_set_thrashes() {
        let mut c = Cache::new(CacheConfig::netbench_l1());
        // 1 MiB stream >> 16 KiB cache: essentially all misses.
        for addr in (0..1024 * 1024u64).step_by(32) {
            c.access(addr);
        }
        assert!(c.stats().miss_rate() > 0.99);
    }

    #[test]
    fn stats_display() {
        let mut c = tiny(1, Replacement::Lru);
        c.access(0);
        let s = c.stats().to_string();
        assert!(s.contains("1 accesses"));
        assert!(s.contains("1 misses"));
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }
}
