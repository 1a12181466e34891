//! Per-packet access/miss accounting — the ATOM checkpoint substitute.
//!
//! The paper: "checkpoints were placed at the beginning and at the end of
//! the packet processing. The instrumented code records the number of
//! memory accesses performed by each packet." [`PacketCostMeter`] does the
//! same: feed it every synthetic address the benchmark touches, call
//! [`PacketCostMeter::checkpoint`] after each packet, and read the
//! per-packet [`PacketCost`] list at the end. Traced radix operations
//! stream their synthetic addresses straight into it: the meter is an
//! [`AccessSink`].

use crate::cache::{Cache, CacheConfig};
use crate::trace::{AccessKind, AccessSink};

/// Memory cost of processing one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PacketCost {
    /// Memory accesses between the packet's checkpoints.
    pub accesses: u64,
    /// L1 misses among them.
    pub misses: u64,
}

impl PacketCost {
    /// Per-packet miss ratio in `[0, 1]` (zero for untouched packets).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Streams accesses through a cache while splitting counters at packet
/// boundaries.
#[derive(Debug, Clone)]
pub struct PacketCostMeter {
    cache: Cache,
    current: PacketCost,
    finished: Vec<PacketCost>,
}

impl PacketCostMeter {
    /// Creates a meter over a fresh cache.
    pub fn new(config: CacheConfig) -> PacketCostMeter {
        PacketCostMeter {
            cache: Cache::new(config),
            current: PacketCost::default(),
            finished: Vec::new(),
        }
    }

    /// Feeds one memory access attributed to the current packet.
    pub fn access(&mut self, addr: u64) {
        self.current.accesses += 1;
        if !self.cache.access(addr).hit {
            self.current.misses += 1;
        }
    }

    /// Ends the current packet's window and starts the next.
    pub fn checkpoint(&mut self) {
        self.finished.push(self.current);
        self.current = PacketCost::default();
    }

    /// Costs of all completed packets.
    pub fn costs(&self) -> &[PacketCost] {
        &self.finished
    }

    /// Finishes metering, returning every completed packet's cost. A
    /// packet in progress (accesses since the last checkpoint) is
    /// discarded — call [`PacketCostMeter::checkpoint`] first.
    pub fn into_costs(self) -> Vec<PacketCost> {
        self.finished
    }

    /// Whole-run cache statistics.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }
}

impl AccessSink for PacketCostMeter {
    #[inline]
    fn access(&mut self, _kind: AccessKind, addr: u64) {
        PacketCostMeter::access(self, addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> PacketCostMeter {
        PacketCostMeter::new(CacheConfig::netbench_l1())
    }

    #[test]
    fn per_packet_windows() {
        let mut m = meter();
        m.access(0x00);
        m.access(0x00);
        m.checkpoint();
        m.access(0x40);
        m.checkpoint();
        let costs = m.costs();
        assert_eq!(costs.len(), 2);
        assert_eq!(costs[0].accesses, 2);
        assert_eq!(costs[0].misses, 1); // second touch hits
        assert_eq!(costs[1].accesses, 1);
        assert_eq!(costs[1].misses, 1);
    }

    #[test]
    fn cache_state_persists_across_packets() {
        let mut m = meter();
        m.access(0x1234);
        m.checkpoint();
        m.access(0x1234); // warmed by previous packet
        m.checkpoint();
        assert_eq!(m.costs()[1].misses, 0);
    }

    #[test]
    fn miss_rate_bounds() {
        let c = PacketCost {
            accesses: 8,
            misses: 2,
        };
        assert!((c.miss_rate() - 0.25).abs() < 1e-12);
        assert_eq!(PacketCost::default().miss_rate(), 0.0);
    }

    #[test]
    fn unfinished_packet_is_dropped() {
        let mut m = meter();
        m.access(0x0);
        m.checkpoint();
        m.access(0x1); // no checkpoint
        let costs = m.into_costs();
        assert_eq!(costs.len(), 1);
    }

    #[test]
    fn totals_match_cache_stats() {
        let mut m = meter();
        for i in 0..100u64 {
            m.access(i * 8);
            if i % 5 == 4 {
                m.checkpoint();
            }
        }
        let total_acc: u64 = m.costs().iter().map(|c| c.accesses).sum();
        assert_eq!(total_acc, m.cache_stats().accesses);
        let total_miss: u64 = m.costs().iter().map(|c| c.misses).sum();
        assert_eq!(total_miss, m.cache_stats().misses);
    }
}
