//! Shared benchmark configuration, report type and the kernel trait of
//! the §6 replay kernels.
//!
//! §6 of the paper validates decompressed traces by replaying them through
//! three programs — **Route** (Netbench), **NAT** (Netbench) and **RTR**
//! (Commbench) — all of which "involve the Radix Tree Routing inside
//! their algorithms", instrumented with ATOM to count memory accesses and
//! cache misses per packet. The kernels run over [`crate::trie`] and are
//! metered by [`crate::meter`]:
//!
//! * [`RouteBench`](crate::route::RouteBench) — longest-prefix-match
//!   forwarding;
//! * [`NatBench`](crate::nat::NatBench) — per-flow translation state
//!   (created on SYN, released on FIN/RST — the "memory needs to be
//!   released" effect the paper points to in §6.2) plus routing;
//! * [`RtrBench`](crate::rtr::RtrBench) — Commbench-style IP forwarding:
//!   TTL/checksum header rewrite plus a denser routing table.
//!
//! Every kernel returns one [`PacketCost`] per packet: the Figure 2 x-axis
//! (accesses) and Figure 3 buckets (miss rate) come straight from these.
//!
//! # Example
//!
//! ```
//! use flowzip_paper::route::RouteBench;
//! use flowzip_paper::runner::{BenchConfig, PacketProcessor};
//! use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};
//!
//! let trace = WebTrafficGenerator::new(
//!     WebTrafficConfig { flows: 20, ..Default::default() }, 1).generate();
//! let report = RouteBench::new(&BenchConfig::default()).run(&trace);
//! assert_eq!(report.costs.len(), trace.len());
//! ```

use crate::cache::{CacheConfig, CacheStats};
use crate::meter::{PacketCost, PacketCostMeter};
use flowzip_trace::Trace;
use std::collections::BTreeSet;
use std::fmt;
use std::net::Ipv4Addr;

/// Synthetic base address of the packet-buffer ring (distinct from the
/// radix arena at [`crate::trie::ARENA_BASE`]).
pub const PKT_BUF_BASE: u64 = 0x4000_0000;
/// Number of packet-buffer slots in the ring.
pub const PKT_BUF_SLOTS: u64 = 64;
/// Bytes per packet-buffer slot.
pub const PKT_BUF_SIZE: u64 = 2048;

/// Emits the accesses of parsing one packet header out of its buffer
/// slot: the fixed per-packet work every kernel performs before touching
/// the routing structures.
pub(crate) fn parse_header(meter: &mut PacketCostMeter, pkt_index: u64) {
    let base = PKT_BUF_BASE + (pkt_index % PKT_BUF_SLOTS) * PKT_BUF_SIZE;
    // Read the 40-byte TCP/IP header as five 8-byte words.
    for w in 0..5 {
        meter.access(base + w * 8);
    }
    // Write parsed metadata (tuple hash, length) behind the header.
    meter.access(base + 64);
    meter.access(base + 72);
}

/// The trace's *server* destinations (port-80 endpoints), in address
/// order: the routing table a kernel builds from them then draws its
/// prefix lengths in the same order, so it is the same on every run.
pub(crate) fn server_destinations(trace: &Trace) -> BTreeSet<Ipv4Addr> {
    trace
        .iter()
        .filter(|p| p.tuple().dst_port == 80)
        .map(|p| p.dst_ip())
        .collect()
}

/// Which kernel to run (handy for CLI flags in the figure binaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BenchKind {
    /// Netbench Route: LPM forwarding.
    #[default]
    Route,
    /// Netbench NAT: per-flow translation + forwarding.
    Nat,
    /// Commbench RTR: header rewrite + dense-table forwarding.
    Rtr,
}

impl BenchKind {
    /// Parses the names used by the figure binaries.
    pub fn parse(s: &str) -> Option<BenchKind> {
        match s.to_ascii_lowercase().as_str() {
            "route" => Some(BenchKind::Route),
            "nat" => Some(BenchKind::Nat),
            "rtr" => Some(BenchKind::Rtr),
            _ => None,
        }
    }
}

impl fmt::Display for BenchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchKind::Route => write!(f, "route"),
            BenchKind::Nat => write!(f, "nat"),
            BenchKind::Rtr => write!(f, "rtr"),
        }
    }
}

/// Common benchmark knobs.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Background routing-table size (prefix count).
    pub routes: usize,
    /// Seed for table generation.
    pub table_seed: u64,
    /// L1 cache geometry for the meter.
    pub cache: CacheConfig,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            routes: 4_096,
            table_seed: 0xF10C,
            cache: CacheConfig::netbench_l1(),
        }
    }
}

/// Result of replaying a trace through a kernel.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Which kernel produced this report.
    pub kind: BenchKind,
    /// One cost record per packet, in trace order.
    pub costs: Vec<PacketCost>,
    /// Whole-run cache statistics.
    pub cache: CacheStats,
    /// Total radix nodes visited across all lookups.
    pub nodes_visited: u64,
}

impl BenchReport {
    /// Mean memory accesses per packet.
    pub fn mean_accesses(&self) -> f64 {
        if self.costs.is_empty() {
            return 0.0;
        }
        self.costs.iter().map(|c| c.accesses).sum::<u64>() as f64 / self.costs.len() as f64
    }

    /// Mean per-packet miss rate.
    pub fn mean_miss_rate(&self) -> f64 {
        if self.costs.is_empty() {
            return 0.0;
        }
        self.costs.iter().map(|c| c.miss_rate()).sum::<f64>() / self.costs.len() as f64
    }
}

impl fmt::Display for BenchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} packets, {:.1} accesses/pkt, {:.2}% mean miss rate",
            self.kind,
            self.costs.len(),
            self.mean_accesses(),
            100.0 * self.mean_miss_rate()
        )
    }
}

/// A packet-processing kernel that can replay a trace.
pub trait PacketProcessor {
    /// Which kernel this is.
    fn kind(&self) -> BenchKind;

    /// Replays the whole trace, producing per-packet costs.
    fn run(&mut self, trace: &Trace) -> BenchReport;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parse_roundtrip() {
        for k in [BenchKind::Route, BenchKind::Nat, BenchKind::Rtr] {
            assert_eq!(BenchKind::parse(&k.to_string()), Some(k));
        }
        assert_eq!(BenchKind::parse("ROUTE"), Some(BenchKind::Route));
        assert_eq!(BenchKind::parse("bogus"), None);
    }

    #[test]
    fn empty_report_means() {
        let r = BenchReport {
            kind: BenchKind::Route,
            costs: vec![],
            cache: Default::default(),
            nodes_visited: 0,
        };
        assert_eq!(r.mean_accesses(), 0.0);
        assert_eq!(r.mean_miss_rate(), 0.0);
    }
}
