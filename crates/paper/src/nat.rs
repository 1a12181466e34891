//! The Netbench **NAT** kernel: per-flow translation state plus routing.
//!
//! NAT keeps a dynamic table of active translations keyed by the client
//! address: entries are *inserted* when a SYN opens a flow and *removed*
//! when FIN/RST closes it. §6.2 attributes the miss-rate divergence of the
//! random trace to exactly this: "in one trace memory needs to be
//! released, whereas in the other trace memory is still available."

use crate::meter::PacketCostMeter;
use crate::runner::{
    parse_header, BenchConfig, BenchKind, BenchReport, PacketProcessor, PKT_BUF_BASE, PKT_BUF_SIZE,
    PKT_BUF_SLOTS,
};
use crate::tablegen::TableGen;
use crate::trie::RadixTable;
use flowzip_trace::{TcpFlags, Trace};
use std::net::Ipv4Addr;

/// Translation entry: the external address and port a client is mapped to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Rewritten source address.
    pub external_ip: Ipv4Addr,
    /// Rewritten source port.
    pub external_port: u16,
}

/// NAT kernel: translation radix (host routes) + forwarding radix.
pub struct NatBench {
    translations: RadixTable<Translation>,
    routing: RadixTable<u32>,
    config: BenchConfig,
    next_port: u16,
    active: usize,
    peak_active: usize,
}

impl NatBench {
    /// Builds the kernel with a fresh forwarding table and an empty
    /// translation table.
    pub fn new(config: &BenchConfig) -> NatBench {
        NatBench {
            translations: RadixTable::new(),
            routing: TableGen::new(config.table_seed).build(config.routes),
            config: config.clone(),
            next_port: 20_000,
            active: 0,
            peak_active: 0,
        }
    }

    /// Currently active translations.
    pub fn active_translations(&self) -> usize {
        self.active
    }

    /// High-water mark of simultaneous translations during the last run.
    pub fn peak_translations(&self) -> usize {
        self.peak_active
    }
}

impl PacketProcessor for NatBench {
    fn kind(&self) -> BenchKind {
        BenchKind::Nat
    }

    fn run(&mut self, trace: &Trace) -> BenchReport {
        let mut meter = PacketCostMeter::new(self.config.cache);
        let mut nodes_visited = 0u64;
        for (i, pkt) in trace.iter().enumerate() {
            parse_header(&mut meter, i as u64);
            let buf = PKT_BUF_BASE + (i as u64 % PKT_BUF_SLOTS) * PKT_BUF_SIZE;

            // Translation lookup by source host route.
            let (hit, visited) = self.translations.traced_lookup(pkt.src_ip(), &mut meter);
            nodes_visited += visited as u64;
            let known = hit.is_some();

            if !known && pkt.flags().contains(TcpFlags::SYN) {
                // New flow: allocate a translation (insert = writes).
                self.next_port = self.next_port.wrapping_add(1).max(20_000);
                let entry = Translation {
                    external_ip: Ipv4Addr::new(198, 18, 0, (i % 254 + 1) as u8),
                    external_port: self.next_port,
                };
                self.translations
                    .traced_insert(pkt.src_ip(), 32, entry, &mut meter);
                self.active += 1;
                self.peak_active = self.peak_active.max(self.active);
            }

            // Rewrite the header in the packet buffer (source fields).
            meter.access(buf + 12); // src ip field write
            meter.access(buf + 20); // src port field write

            // Forwarding decision.
            let (_hop, visited2) = self.routing.traced_lookup(pkt.dst_ip(), &mut meter);
            nodes_visited += visited2 as u64;
            meter.access(buf + 80);

            // Flow teardown releases the translation ("memory released").
            if pkt.flags().terminates_flow() {
                let removed = self
                    .translations
                    .traced_remove(pkt.src_ip(), 32, &mut meter);
                if removed.is_some() {
                    self.active -= 1;
                }
                // The peer's entry also dies with the conversation.
                let removed_peer = self
                    .translations
                    .traced_remove(pkt.dst_ip(), 32, &mut meter);
                if removed_peer.is_some() {
                    self.active -= 1;
                }
            } else if !known && !pkt.flags().contains(TcpFlags::SYN) && pkt.has_payload() {
                // Mid-flow data packet of an untracked flow (e.g. responder
                // direction): track it too, like a real NAT's reverse map.
                // Pure ACKs (e.g. the last segment of a teardown) do not
                // re-create state for a closed conversation.
                self.translations.traced_insert(
                    pkt.src_ip(),
                    32,
                    Translation {
                        external_ip: pkt.src_ip(),
                        external_port: pkt.tuple().src_port,
                    },
                    &mut meter,
                );
                self.active += 1;
                self.peak_active = self.peak_active.max(self.active);
            }
            meter.checkpoint();
        }
        let cache = meter.cache_stats();
        BenchReport {
            kind: BenchKind::Nat,
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

    fn trace(flows: usize, seed: u64) -> Trace {
        WebTrafficGenerator::new(
            WebTrafficConfig {
                flows,
                rst_prob: 0.0,
                ..WebTrafficConfig::default()
            },
            seed,
        )
        .generate()
    }

    #[test]
    fn per_packet_costs_and_state() {
        let t = trace(40, 1);
        let mut bench = NatBench::new(&BenchConfig::default());
        let report = bench.run(&t);
        assert_eq!(report.costs.len(), t.len());
        assert!(bench.peak_translations() > 0);
    }

    #[test]
    fn translations_are_released_on_teardown() {
        let t = trace(60, 2);
        let mut bench = NatBench::new(&BenchConfig::default());
        let _ = bench.run(&t);
        // Complete FIN teardowns release both directions; the generator
        // with rst_prob=0 closes every flow.
        assert!(
            bench.active_translations() <= 2,
            "expected near-zero residual translations, got {}",
            bench.active_translations()
        );
        assert!(bench.peak_translations() >= 2);
    }

    #[test]
    fn nat_costs_exceed_route_costs() {
        // NAT does strictly more memory work per packet than plain route.
        let t = trace(30, 3);
        let cfg = BenchConfig::default();
        let nat = NatBench::new(&cfg).run(&t);
        let route = crate::route::RouteBench::new(&cfg).run(&t);
        assert!(nat.mean_accesses() > route.mean_accesses());
    }

    #[test]
    fn deterministic() {
        let t = trace(25, 4);
        let a = NatBench::new(&BenchConfig::default()).run(&t);
        let b = NatBench::new(&BenchConfig::default()).run(&t);
        assert_eq!(a.costs, b.costs);
    }
}
