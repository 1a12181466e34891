//! Every metric the harness reports, by name, with its unit and the
//! direction in which it gets better. `BENCHMARK.json` declares the
//! same lists (a unit test holds the two together) and adds the bounds.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the CLI sees; measured with tracing off.
///
/// Wall-clock rates are kept for the paths that run on one thread
/// (`compress`, `decompress`). The multi-threaded paths (`compress_mt`,
/// `serve`, section-parallel `query`) are gated on the child's own CPU
/// time instead: on a shared 2-vCPU host their wall time flips between a
/// serialised and an overlapped regime for minutes at a time (≈45 %
/// apart), which no bound of at most 25 % can hold. Their wall-clock
/// numbers are still in the ledger, unbounded, as the `cli.*` per-layer
/// metrics.
pub const END_TO_END: [Metric; 13] = [
    lower("setup_s", "s"),
    higher("compress_pps", "pkt/s"),
    lower("compress_cpu_ns_per_pkt", "ns/pkt"),
    lower("compress_peak_rss_mb", "MB"),
    lower("compress_mt_peak_rss_mb", "MB"),
    lower("ratio_pct", "%"),
    higher("decompress_pps", "pkt/s"),
    lower("decompress_cpu_ns_per_pkt", "ns/pkt"),
    lower("decompress_peak_rss_mb", "MB"),
    lower("serve_cpu_ns_per_pkt", "ns/pkt"),
    lower("serve_peak_rss_mb", "MB"),
    lower("query_cpu_ms", "ms"),
    lower("query_dir_cpu_ms", "ms"),
];

/// One layer each, named after the crate; measured in the traced run.
/// The direction is the one an optimisation of that layer would move
/// it; descriptors (counts, shares, KS distances) say `lower` or
/// `higher` by what a better compressor would show.
pub const PER_LAYER: [Metric; 60] = [
    lower("trace.tsh_decode_ns_per_pkt", "ns/pkt"),
    lower("trace.tsh_decode_allocs_per_pkt", "count"),
    lower("trace.tsh_encode_ns_per_pkt", "ns/pkt"),
    lower("trace.pcap_decode_ns_per_pkt", "ns/pkt"),
    lower("trace.pcap_encode_ns_per_pkt", "ns/pkt"),
    lower("io.file_read_ns_per_pkt", "ns/pkt"),
    lower("io.prefetch_read_ns_per_pkt", "ns/pkt"),
    lower("io.multifile_read_ns_per_pkt", "ns/pkt"),
    lower("io.read_wait_share", "%"),
    lower("core.accumulate_ns_per_pkt", "ns/pkt"),
    lower("core.accumulate_allocs_per_pkt", "count"),
    lower("core.peak_active_flows", "count"),
    lower("core.accumulate_evict_ns_per_pkt", "ns/pkt"),
    lower("core.evicted_flows", "count"),
    lower("core.cluster_ns_per_flow", "ns/flow"),
    lower("core.cluster_allocs_per_flow", "count"),
    higher("core.template_hit_rate", "%"),
    lower("core.templates", "count"),
    higher("core.short_flow_share", "%"),
    lower("core.encode_ns_per_pkt", "ns/pkt"),
    lower("core.encode_bytes_per_pkt", "B/pkt"),
    lower("core.parse_ns_per_pkt", "ns/pkt"),
    lower("core.synth_ns_per_pkt", "ns/pkt"),
    lower("core.synth_allocs_per_pkt", "count"),
    lower("core.query_hit_us", "us"),
    lower("core.query_miss_us", "us"),
    lower("core.query_window_us", "us"),
    lower("core.query_sections_scanned_share", "%"),
    lower("core.fidelity_ks_len", "ks"),
    lower("core.fidelity_ks_dur", "ks"),
    lower("core.fidelity_ks_gap", "ks"),
    lower("core.complexity_score", "score"),
    lower("engine.shards1_ns_per_pkt", "ns/pkt"),
    lower("engine.shards2_ns_per_pkt", "ns/pkt"),
    lower("engine.allocs_per_pkt", "count"),
    lower("engine.fabric_ns_per_pkt", "ns/pkt"),
    lower("engine.shard_skew", "ratio"),
    lower("engine.telemetry_overhead_pct", "%"),
    lower("obs.metrics_overhead_pct", "%"),
    lower("pipeline.compress_ns_per_pkt", "ns/pkt"),
    lower("pipeline.compress_mt_ns_per_pkt", "ns/pkt"),
    lower("pipeline.decompress_ns_per_pkt", "ns/pkt"),
    lower("pipeline.compress_cpu_unattributed_pct", "%"),
    lower("pipeline.decompress_cpu_unattributed_pct", "%"),
    lower("serve.inproc_ns_per_pkt", "ns/pkt"),
    lower("serve.window_publish_ms_p50", "ms"),
    lower("serve.window_publish_ms_max", "ms"),
    lower("serve.generator_late_ms_max", "ms"),
    lower("serve.windows", "count"),
    lower("serve.dropped_packets", "count"),
    lower("serve.rotation_bytes_overhead_pct", "%"),
    lower("serve.rotation_flow_inflation_pct", "%"),
    lower("cli.startup_ms", "ms"),
    lower("cli.compress_overhead_ns_per_pkt", "ns/pkt"),
    higher("cli.compress_mt_pps", "pkt/s"),
    higher("cli.serve_pps", "pkt/s"),
    lower("cli.query_ms", "ms"),
    lower("cli.query_dir_ms", "ms"),
    lower("cli.query_p90_ms", "ms"),
    lower("bench.trace_overhead_pct", "%"),
];

pub fn find(name: &str) -> Option<Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .copied()
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` at the repo root and the tables above must name
    /// the same metrics with the same units and directions.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = doc.get(key).unwrap().arr().unwrap();
            assert_eq!(declared.len(), table.len(), "{key}: count");
            for (d, m) in declared.iter().zip(table) {
                assert_eq!(d.get("name").unwrap().str(), Some(m.name));
                assert_eq!(d.get("unit").unwrap().str(), Some(m.unit), "{}", m.name);
                let better = match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(d.get("better").unwrap().str(), Some(better), "{}", m.name);
            }
        }
        let declared: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().str().unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared, ours);
    }
}
