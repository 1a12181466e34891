//! The Commbench **RTR** kernel: IP forwarding with header rewrite over a
//! dense routing table.
//!
//! RTR models a backbone router's per-packet work: verify + update the
//! IPv4 header (TTL decrement, checksum recomputation) and resolve the
//! next hop in a table considerably denser than the Route kernel's, so
//! lookups walk deeper.

use crate::meter::PacketCostMeter;
use crate::runner::{
    parse_header, server_destinations, BenchConfig, BenchKind, BenchReport, PacketProcessor,
    PKT_BUF_BASE, PKT_BUF_SIZE, PKT_BUF_SLOTS,
};
use crate::tablegen::TableGen;
use crate::trie::RadixTable;
use flowzip_trace::Trace;

/// Density multiplier over [`BenchConfig::routes`] for RTR's table.
pub const TABLE_DENSITY: usize = 4;

/// Commbench-style forwarding kernel.
pub struct RtrBench {
    table: RadixTable<u32>,
    config: BenchConfig,
}

impl RtrBench {
    /// Builds the kernel with a dense seeded table.
    pub fn new(config: &BenchConfig) -> RtrBench {
        RtrBench {
            table: TableGen::new(config.table_seed ^ 0xD15C).build(config.routes * TABLE_DENSITY),
            config: config.clone(),
        }
    }

    /// Builds the kernel with a dense table covering only the trace's
    /// *server* destinations (port-80 endpoints) — see
    /// [`RouteBench::covering_servers`](crate::route::RouteBench::covering_servers).
    pub fn covering_servers(config: &BenchConfig, trace: &Trace) -> RtrBench {
        RtrBench {
            table: TableGen::new(config.table_seed ^ 0xD15C)
                .build_covering(server_destinations(trace), config.routes * TABLE_DENSITY),
            config: config.clone(),
        }
    }
}

impl PacketProcessor for RtrBench {
    fn kind(&self) -> BenchKind {
        BenchKind::Rtr
    }

    fn run(&mut self, trace: &Trace) -> BenchReport {
        let mut meter = PacketCostMeter::new(self.config.cache);
        let mut nodes_visited = 0u64;
        for (i, pkt) in trace.iter().enumerate() {
            parse_header(&mut meter, i as u64);
            let buf = PKT_BUF_BASE + (i as u64 % PKT_BUF_SLOTS) * PKT_BUF_SIZE;

            // Header verification: reread the IP header words for the
            // checksum, then rewrite TTL + checksum.
            for w in 0..3 {
                meter.access(buf + w * 8);
            }
            meter.access(buf + 16); // TTL write
            meter.access(buf + 18); // checksum write

            let (_hop, visited) = self.table.traced_lookup(pkt.dst_ip(), &mut meter);
            nodes_visited += visited as u64;

            // Enqueue to the output port ring.
            meter.access(0x6000_0000 + (i as u64 % 512) * 16);
            meter.checkpoint();
        }
        let cache = meter.cache_stats();
        BenchReport {
            kind: BenchKind::Rtr,
            costs: meter.into_costs(),
            cache,
            nodes_visited,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::RouteBench;
    use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};

    fn trace(seed: u64) -> Trace {
        WebTrafficGenerator::new(
            WebTrafficConfig {
                flows: 40,
                ..WebTrafficConfig::default()
            },
            seed,
        )
        .generate()
    }

    #[test]
    fn per_packet_costs() {
        let t = trace(1);
        let report = RtrBench::new(&BenchConfig::default()).run(&t);
        assert_eq!(report.costs.len(), t.len());
        assert!(report.mean_accesses() > 10.0);
    }

    #[test]
    fn denser_table_walks_deeper_than_route() {
        let t = trace(2);
        let cfg = BenchConfig::default();
        let rtr = RtrBench::new(&cfg).run(&t);
        let route = RouteBench::new(&cfg).run(&t);
        assert!(
            rtr.nodes_visited > route.nodes_visited,
            "rtr {} vs route {}",
            rtr.nodes_visited,
            route.nodes_visited
        );
    }

    #[test]
    fn deterministic() {
        let t = trace(3);
        let cfg = BenchConfig::default();
        let a = RtrBench::new(&cfg).run(&t);
        let b = RtrBench::new(&cfg).run(&t);
        assert_eq!(a.costs, b.costs);
        // A table built from the trace's servers is the same on every build.
        let mut x = RtrBench::covering_servers(&cfg, &t);
        let mut y = RtrBench::covering_servers(&cfg, &t);
        assert!(x.table.iter().eq(y.table.iter()));
        assert_eq!(x.run(&t).costs, y.run(&t).costs);
    }
}
