//! Aggregate engine report: the batch-compatible [`CompressionReport`]
//! plus the throughput and memory figures only a streaming run can know.

use flowzip_core::CompressionReport;
use std::fmt;

/// What a streaming run did: the §3/§5 compression report, aggregated
/// across shards, plus wall-clock throughput and memory high-water marks.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// The batch-compatible compression report (packets, flows, clusters,
    /// sizes, ratios — and `peak_active_flows` summed over shards).
    pub report: CompressionReport,
    /// Worker shards the run used.
    pub shards: usize,
    /// Wall-clock seconds from first packet to merged archive.
    pub elapsed_secs: f64,
    /// Packets consumed per wall-clock second.
    pub packets_per_sec: f64,
    /// Input throughput in TSH megabytes (44 B/packet) per second.
    pub mb_per_sec: f64,
    /// Flows force-closed by idle-timeout eviction.
    pub evicted_flows: u64,
    /// Wall-clock seconds of the *serial* tail: the whole
    /// single-threaded shard merge + time-seq sort + encode for v1
    /// output, but only store merge + index assembly + payload
    /// concatenation for v2 (per-shard payload encoding happens on the
    /// worker threads and overlaps compute). Zero for in-memory runs
    /// that never serialized.
    pub serialize_secs: f64,
    /// The busiest single shard thread's measured accumulate+encode
    /// seconds — a *directly measured* stage timing. Zero when metrics
    /// are off: busy time is only clocked for instrumented runs.
    pub stage_busy_secs: f64,
    /// `elapsed − stage_busy`, clamped at zero: wall-clock the shard
    /// stages did not see (input wait, thread scheduling, routing,
    /// channel hand-off). Zero when metrics are off. The engine never
    /// sees the input's [`IoStats`](flowzip_io::IoStats);
    /// `flowzip-pipeline`'s `Timing` subtracts read-wait from this.
    pub unattributed_secs: f64,
    /// Archive sections written (v2: one per shard; v1: 1; in-memory: 0).
    pub sections: usize,
    /// Serialized archive size in bytes (0 for in-memory runs).
    pub archive_bytes: u64,
}

impl EngineReport {
    /// Per-shard open-flow peaks, summed — an upper bound on true
    /// simultaneous concurrency (shards may peak at different moments),
    /// and the figure idle-timeout eviction exists to bound. Forwards
    /// to [`CompressionReport::peak_active_flows`].
    pub fn peak_active_flows(&self) -> u64 {
        self.report.peak_active_flows
    }
}

impl fmt::Display for EngineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}; {} shards, {:.2}s, {:.0} packets/s ({:.2} MB/s), peak {} active flows, {} evicted",
            self.report,
            self.shards,
            self.elapsed_secs,
            self.packets_per_sec,
            self.mb_per_sec,
            self.peak_active_flows(),
            self.evicted_flows
        )?;
        if self.stage_busy_secs > 0.0 {
            write!(
                f,
                "; busiest shard {:.3}s, unattributed {:.3}s",
                self.stage_busy_secs, self.unattributed_secs
            )?;
        }
        if self.sections > 0 {
            write!(
                f,
                "; {} section archive, {} B, serial tail {:.4}s",
                self.sections, self.archive_bytes, self.serialize_secs
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowzip_core::DatasetSizes;

    #[test]
    fn display_mentions_throughput_and_peak() {
        let r = EngineReport {
            report: CompressionReport {
                packets: 10,
                flows: 2,
                short_flows: 2,
                long_flows: 0,
                matched_flows: 1,
                clusters: 1,
                addresses: 1,
                peak_active_flows: 2,
                sizes: DatasetSizes::default(),
                tsh_bytes: 440,
                ratio_vs_tsh: 0.03,
                ratio_vs_headers: 0.04,
            },
            shards: 4,
            elapsed_secs: 0.5,
            packets_per_sec: 20.0,
            mb_per_sec: 0.00088,
            evicted_flows: 0,
            serialize_secs: 0.0,
            stage_busy_secs: 0.0,
            unattributed_secs: 0.0,
            sections: 0,
            archive_bytes: 0,
        };
        let s = r.to_string();
        assert!(s.contains("4 shards, 0.50s"));
        assert!(s.contains("packets/s"));
        assert!(s.contains("peak 2 active flows"));
        // In-memory runs don't claim an archive...
        assert!(!s.contains("section archive"));
        // ...serialized ones do.
        let mut ser = r.clone();
        ser.sections = 4;
        ser.archive_bytes = 1234;
        ser.serialize_secs = 0.001;
        let s = ser.to_string();
        assert!(s.contains("4 section archive"));
        assert!(s.contains("serial tail"));
    }
}
