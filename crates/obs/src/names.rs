//! Conventional instrument names the flowzip pipeline registers, in
//! one place so emitters (engine, io, container) and consumers
//! (snapshots, tests, dashboards) cannot drift on spelling.
//!
//! Names are dotted paths. Per-shard instruments embed the shard index:
//! `engine.shard.3.queue_depth`.

/// Packets accepted by shard accumulators (counter).
pub const ENGINE_PACKETS: &str = "engine.packets";
/// Batches processed by shard accumulators (counter).
pub const ENGINE_BATCHES: &str = "engine.batches";
/// Flows force-closed by idle eviction, across shards (counter).
pub const ENGINE_EVICTED_FLOWS: &str = "engine.evicted_flows";
/// Nanoseconds of the serial container-serialization tail (counter).
pub const CONTAINER_SERIALIZE_NS: &str = "container.serialize_ns";
/// Archive sections written (counter).
pub const CONTAINER_SECTIONS: &str = "container.sections";
/// Raw bytes reader threads pulled off disk (counter).
pub const IO_READER_BYTES: &str = "io.reader.bytes";
/// Decoded batches reader threads handed over (counter).
pub const IO_READER_BATCHES: &str = "io.reader.batches";
/// Nanoseconds the consuming pipeline spent blocked on input (counter).
pub const IO_READ_WAIT_NS: &str = "io.read_wait_ns";
/// Chunks sitting in the prefetch hand-off buffer right now (gauge).
pub const IO_PREFETCH_OCCUPANCY: &str = "io.prefetch.occupancy";
/// Per-event read-wait stalls, nanoseconds each (histogram; feeds the
/// p95 read-wait figure in the human stats one-liner).
pub const IO_READ_WAIT_HIST_NS: &str = "io.read_wait.hist_ns";

/// Flows that finished with a derived telemetry row (counter;
/// `--telemetry` runs only).
pub const TELEMETRY_FLOWS: &str = "telemetry.flows";
/// Retransmitted segments detected across finished flows, fast and
/// timeout classes combined (counter; `--telemetry` runs only).
pub const TELEMETRY_RETRANSMISSIONS: &str = "telemetry.retransmissions";
/// RTT samples harvested from handshakes and the ack clock (counter;
/// `--telemetry` runs only).
pub const TELEMETRY_RTT_SAMPLES: &str = "telemetry.rtt_samples";
/// Measured per-flow RTT estimates, microseconds (histogram;
/// `--telemetry` runs only — feeds the p95 RTT figure in the human
/// stats one-liner).
pub const TELEMETRY_RTT_US: &str = "telemetry.rtt_us";

/// Packets a serve session dropped under overload — the ingest queue
/// was full and the drop-and-count policy discarded the batch (counter;
/// `flowzip serve` runs only).
pub const SERVE_DROPPED_PACKETS: &str = "serve.dropped_packets";
/// Archive windows a serve session has rotated out (counter).
pub const SERVE_WINDOWS: &str = "serve.windows";
/// Wall-clock age of the window currently being filled, seconds
/// (gauge; resets to 0 at each rotation).
pub const SERVE_WINDOW_AGE_SECS: &str = "serve.window_age_secs";
/// Batches queued between the serve ingest thread and the engine right
/// now (gauge).
pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";

/// Sections in the archive a query planned over (counter).
pub const QUERY_SECTIONS_TOTAL: &str = "query.sections_total";
/// Sections a query actually decoded (counter).
pub const QUERY_SECTIONS_SCANNED: &str = "query.sections_scanned";
/// Sections a query skipped via the metadata time range (counter).
pub const QUERY_SECTIONS_SKIPPED_TIME: &str = "query.sections_skipped_time";
/// Sections a query skipped via the flow-key Bloom filter (counter).
pub const QUERY_SECTIONS_SKIPPED_BLOOM: &str = "query.sections_skipped_bloom";
/// Flow records that matched a query (counter).
pub const QUERY_FLOWS_MATCHED: &str = "query.flows_matched";
/// Packets a query's result expanded to (counter).
pub const QUERY_PACKETS: &str = "query.packets";

/// Prefix every per-shard instrument name starts with.
pub const SHARD_PREFIX: &str = "engine.shard.";
/// Suffix of per-shard queue-depth gauges.
pub const QUEUE_DEPTH_SUFFIX: &str = ".queue_depth";
/// Suffix of per-shard active-flow gauges.
pub const ACTIVE_FLOWS_SUFFIX: &str = ".active_flows";

/// Batches queued on shard `i`'s bounded channel right now (gauge).
pub fn shard_queue_depth(i: usize) -> String {
    format!("{SHARD_PREFIX}{i}{QUEUE_DEPTH_SUFFIX}")
}

/// Open flows in shard `i`'s accumulator right now (gauge).
pub fn shard_active_flows(i: usize) -> String {
    format!("{SHARD_PREFIX}{i}{ACTIVE_FLOWS_SUFFIX}")
}

/// Per-batch accumulate time on shard `i` (histogram, nanoseconds).
pub fn shard_accumulate_ns(i: usize) -> String {
    format!("{SHARD_PREFIX}{i}.accumulate_ns")
}

/// Finalize/encode time on shard `i` (counter, nanoseconds).
pub fn shard_encode_ns(i: usize) -> String {
    format!("{SHARD_PREFIX}{i}.encode_ns")
}

/// Parses the shard index out of a per-shard instrument name with the
/// given suffix, e.g. `engine.shard.3.queue_depth` → `Some(3)`.
pub fn shard_index(name: &str, suffix: &str) -> Option<usize> {
    name.strip_prefix(SHARD_PREFIX)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_names_round_trip_their_index() {
        assert_eq!(shard_queue_depth(3), "engine.shard.3.queue_depth");
        assert_eq!(
            shard_index(&shard_queue_depth(3), QUEUE_DEPTH_SUFFIX),
            Some(3)
        );
        assert_eq!(
            shard_index(&shard_active_flows(0), ACTIVE_FLOWS_SUFFIX),
            Some(0)
        );
        assert_eq!(
            shard_index("engine.shard.x.queue_depth", QUEUE_DEPTH_SUFFIX),
            None
        );
        assert_eq!(shard_index(ENGINE_PACKETS, QUEUE_DEPTH_SUFFIX), None);
    }
}
