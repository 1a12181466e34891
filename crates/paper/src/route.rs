//! The Netbench **Route** kernel: parse, longest-prefix match, forward.

use crate::meter::PacketCostMeter;
use crate::runner::{
    parse_header, server_destinations, BenchConfig, BenchKind, BenchReport, PacketProcessor,
    PKT_BUF_BASE, PKT_BUF_SIZE, PKT_BUF_SLOTS,
};
use crate::tablegen::TableGen;
use crate::trie::RadixTable;
use flowzip_trace::Trace;

/// LPM forwarding over a synthetic backbone table. The table is built
/// once (covering the trace's destinations is the caller's concern — the
/// default table always matches via its default route).
pub struct RouteBench {
    table: RadixTable<u32>,
    config: BenchConfig,
}

impl RouteBench {
    /// Builds the kernel with a fresh seeded table.
    pub fn new(config: &BenchConfig) -> RouteBench {
        RouteBench {
            table: TableGen::new(config.table_seed).build(config.routes),
            config: config.clone(),
        }
    }

    /// Builds the kernel with a table covering the given trace's
    /// destinations, so lookups walk to specific routes instead of
    /// falling through to the default.
    pub fn covering(config: &BenchConfig, trace: &Trace) -> RouteBench {
        let dests: std::collections::BTreeSet<_> = trace.iter().map(|p| p.dst_ip()).collect();
        RouteBench {
            table: TableGen::new(config.table_seed).build_covering(dests, config.routes),
            config: config.clone(),
        }
    }

    /// Builds the kernel with a table covering only the trace's *server*
    /// destinations (port-80 endpoints). Client addresses resolve through
    /// background prefixes — a realistic FIB, and the right comparison
    /// baseline for §6 where the decompressor re-randomizes client
    /// addresses.
    pub fn covering_servers(config: &BenchConfig, trace: &Trace) -> RouteBench {
        RouteBench {
            table: TableGen::new(config.table_seed)
                .build_covering(server_destinations(trace), config.routes),
            config: config.clone(),
        }
    }
}

impl PacketProcessor for RouteBench {
    fn kind(&self) -> BenchKind {
        BenchKind::Route
    }

    fn run(&mut self, trace: &Trace) -> BenchReport {
        let mut meter = PacketCostMeter::new(self.config.cache);
        let mut nodes_visited = 0u64;
        for (i, pkt) in trace.iter().enumerate() {
            parse_header(&mut meter, i as u64);
            let (_hop, visited) = self.table.traced_lookup(pkt.dst_ip(), &mut meter);
            nodes_visited += visited as u64;
            // Store the forwarding decision back into the packet buffer.
            meter.access(PKT_BUF_BASE + (i as u64 % PKT_BUF_SLOTS) * PKT_BUF_SIZE + 80);
            meter.checkpoint();
        }
        let cache = meter.cache_stats();
        BenchReport {
            kind: BenchKind::Route,
            costs: meter.into_costs(),
            cache,
            nodes_visited,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};

    fn small_trace(seed: u64) -> Trace {
        WebTrafficGenerator::new(
            WebTrafficConfig {
                flows: 50,
                ..WebTrafficConfig::default()
            },
            seed,
        )
        .generate()
    }

    #[test]
    fn one_cost_per_packet() {
        let trace = small_trace(1);
        let report = RouteBench::new(&BenchConfig::default()).run(&trace);
        assert_eq!(report.costs.len(), trace.len());
        assert!(report.costs.iter().all(|c| c.accesses >= 8));
        assert!(report.nodes_visited as usize >= trace.len());
    }

    #[test]
    fn deterministic_replay() {
        let trace = small_trace(2);
        let cfg = BenchConfig::default();
        let a = RouteBench::new(&cfg).run(&trace);
        let b = RouteBench::new(&cfg).run(&trace);
        assert_eq!(a.costs, b.costs);
        // A table built from the trace's servers is the same on every build.
        let mut x = RouteBench::covering_servers(&cfg, &trace);
        let mut y = RouteBench::covering_servers(&cfg, &trace);
        assert!(x.table.iter().eq(y.table.iter()));
        assert_eq!(x.run(&trace).costs, y.run(&trace).costs);
    }

    #[test]
    fn covering_table_goes_deeper_than_default_only() {
        let trace = small_trace(3);
        let default_run = RouteBench::new(&BenchConfig {
            routes: 0, // only the default route
            ..BenchConfig::default()
        })
        .run(&trace);
        let covering_run = RouteBench::covering(&BenchConfig::default(), &trace).run(&trace);
        assert!(
            covering_run.mean_accesses() > default_run.mean_accesses(),
            "specific routes mean longer walks: {} vs {}",
            covering_run.mean_accesses(),
            default_run.mean_accesses()
        );
    }

    #[test]
    fn locality_shows_up_in_miss_rates() {
        // A trace that hammers one destination has a far lower miss rate
        // than one spraying uniform destinations.
        use flowzip_trace::prelude::*;
        let mut hot = Trace::new();
        let mut cold = Trace::new();
        let mut rng_state = 1u32;
        for i in 0..2_000u64 {
            hot.push(
                PacketRecord::builder()
                    .timestamp(Timestamp::from_micros(i))
                    .dst(Ipv4Addr::new(1, 2, 3, 4), 80)
                    .src(Ipv4Addr::new(9, 9, 9, 9), 1024)
                    .build(),
            );
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 17;
            rng_state ^= rng_state << 5;
            cold.push(
                PacketRecord::builder()
                    .timestamp(Timestamp::from_micros(i))
                    .dst(Ipv4Addr::from(rng_state), 80)
                    .src(Ipv4Addr::new(9, 9, 9, 9), 1024)
                    .build(),
            );
        }
        let cfg = BenchConfig::default();
        let hot_run = RouteBench::covering(&cfg, &hot).run(&hot);
        let cold_run = RouteBench::covering(&cfg, &cold).run(&cold);
        assert!(
            hot_run.mean_miss_rate() < cold_run.mean_miss_rate(),
            "hot {} vs cold {}",
            hot_run.mean_miss_rate(),
            cold_run.mean_miss_rate()
        );
    }
}
