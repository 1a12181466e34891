//! **Section-stream analysis passes**: build the paper's CDFs,
//! histograms and series directly from an archive, one section at a
//! time, without ever reconstructing the full `time-seq` dataset (let
//! alone decompressing packets).
//!
//! The input is a [`flowzip_core::ArchiveReader`] — global context
//! (short-flow templates, addresses, the v2.1 metadata block) parses
//! once, then each section's flow records decode and fold into the
//! accumulators before the next section is touched. Peak memory is
//! O(global datasets + one section + flows-worth of samples), which is
//! what makes the passes usable on archives whose expansion would not
//! fit.

use crate::complexity::TraceComplexity;
use crate::{BucketedHistogram, Cdf};
use flowzip_core::datasets::CodecError;
use flowzip_core::ArchiveReader;

/// The streaming passes' combined result: distribution passes (CDF +
/// Figure 3 histogram over packets-per-flow, RTT CDF) and the trace
/// complexity.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchivePasses {
    /// Flow records across all sections.
    pub flows: u64,
    /// Packets across all sections (template expansion counts).
    pub packets: u64,
    /// CDF of packets per flow.
    pub packets_per_flow: Cdf,
    /// Figure 3 histogram of packets per flow.
    pub flow_size_histogram: BucketedHistogram,
    /// CDF of short-flow RTTs in milliseconds.
    pub rtt_ms: Cdf,
    /// CDF of *measured* per-flow RTT estimates in milliseconds, from
    /// the rev 2.2 `FZT1` telemetry side-section (flows with at least
    /// one sample; empty when the archive carries no telemetry).
    pub measured_rtt_ms: Cdf,
    /// CDF of retransmitted segments per flow (fast + timeout), from the
    /// telemetry side-section (empty when absent).
    pub retransmissions_per_flow: Cdf,
    /// Whether the archive carried an `FZT1` telemetry block.
    pub has_telemetry: bool,
    /// The trace-complexity decomposition over flow sizes and arrivals.
    pub complexity: TraceComplexity,
}

/// Runs the streaming passes over every section of the archive `data`
/// (v1 reads as one section).
///
/// # Errors
///
/// [`CodecError`] when `data` is not a well-formed v1 or v2 archive, or
/// a section payload is malformed; sections decoded before the error
/// are discarded.
pub fn analyze_archive(data: &[u8]) -> Result<ArchivePasses, CodecError> {
    let reader = ArchiveReader::open(data)?;
    let mut sizes: Vec<f64> = Vec::new();
    let mut sizes_u: Vec<u64> = Vec::new();
    let mut starts_us: Vec<u64> = Vec::new();
    let mut rtts: Vec<f64> = Vec::new();
    let mut measured_rtts: Vec<f64> = Vec::new();
    let mut retrans: Vec<f64> = Vec::new();
    let has_telemetry = reader.telemetry().is_some();
    let mut histogram = BucketedHistogram::figure3();
    let mut packets = 0u64;

    // Short-template expansion sizes are global and reused per record.
    let short_len: Vec<usize> = reader.short_templates().iter().map(Vec::len).collect();

    for section in reader.sections() {
        let section = section?;
        for r in &section.records {
            let n = if r.is_long {
                section.long_templates[(r.template_idx - section.long_base) as usize].len()
            } else {
                short_len[r.template_idx as usize]
            };
            packets += n as u64;
            sizes.push(n as f64);
            sizes_u.push(n as u64);
            starts_us.push(r.first_ts.as_micros());
            histogram.add(n as f64);
            if !r.is_long {
                rtts.push(r.rtt.as_micros() as f64 / 1_000.0);
            }
        }
        // Telemetry rows index-join the section's records, so this is
        // the same flow population the distribution passes just folded.
        for t in section.telemetry.iter().flatten() {
            if t.rtt_samples > 0 {
                measured_rtts.push(t.rtt_us as f64 / 1_000.0);
            }
            retrans.push(t.retransmissions() as f64);
        }
    }

    Ok(ArchivePasses {
        flows: sizes.len() as u64,
        packets,
        packets_per_flow: Cdf::from_samples(sizes),
        flow_size_histogram: histogram,
        rtt_ms: Cdf::from_samples(rtts),
        measured_rtt_ms: Cdf::from_samples(measured_rtts),
        retransmissions_per_flow: Cdf::from_samples(retrans),
        has_telemetry,
        complexity: TraceComplexity::from_flows(&sizes_u, &starts_us),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowzip_core::{Compressor, Params};
    use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};

    fn archive_bytes(flows: usize, seed: u64) -> Vec<u8> {
        let trace = WebTrafficGenerator::new(
            WebTrafficConfig {
                flows,
                ..WebTrafficConfig::default()
            },
            seed,
        )
        .generate();
        Compressor::new(Params::paper())
            .compress(&trace)
            .0
            .to_bytes_v2()
    }

    #[test]
    fn streaming_passes_match_full_reconstruction() {
        let bytes = archive_bytes(200, 31);
        let passes = analyze_archive(&bytes).unwrap();
        // Reference: the fully-reconstructed archive.
        let ct = flowzip_core::CompressedTrace::from_bytes(&bytes).unwrap();
        assert_eq!(passes.flows, ct.time_seq.len() as u64);
        assert_eq!(passes.packets, ct.packet_count());
        assert_eq!(passes.packets_per_flow.len(), ct.time_seq.len());
        assert_eq!(passes.flow_size_histogram.total(), ct.time_seq.len() as u64);
        let shorts = ct.time_seq.iter().filter(|r| !r.is_long).count();
        assert_eq!(passes.rtt_ms.len(), shorts);
        assert_eq!(passes.complexity, TraceComplexity::from_archive(&ct));
        // The reader's sections tile the archive the passes folded.
        let sections: Vec<_> = ArchiveReader::open(&bytes)
            .unwrap()
            .sections()
            .map(Result::unwrap)
            .collect();
        assert_eq!(
            sections.iter().map(|s| s.records.len() as u64).sum::<u64>(),
            passes.flows
        );
        for s in &sections {
            assert!(s.records.first().map(|r| r.first_ts) <= s.records.last().map(|r| r.first_ts));
        }
        // Distribution sanity: every flow has at least one packet, and
        // the CDF agrees with the histogram about the mass at small n.
        assert!(passes.packets_per_flow.quantile(0.0).unwrap() >= 1.0);
        assert!(passes.rtt_ms.quantile(0.5).unwrap() > 0.0);
    }

    #[test]
    fn telemetry_passes_fold_fzt1_rows() {
        let trace = WebTrafficGenerator::new(
            WebTrafficConfig {
                flows: 120,
                ..WebTrafficConfig::default()
            },
            34,
        )
        .generate();
        let (ct, _) = Compressor::new(Params::paper()).compress(&trace);
        let n = ct.time_seq.len();
        let rows: Vec<flowzip_core::FlowTelemetry> = (0..n as u64)
            .map(|i| flowzip_core::FlowTelemetry {
                // The codec rejects an RTT estimate without samples, so
                // unmeasured flows carry a zeroed pair.
                rtt_us: if i % 4 == 0 { 0 } else { 1_000 + i * 10 },
                rtt_samples: if i % 4 == 0 { 0 } else { 2 },
                retrans_fast: i % 3,
                retrans_timeout: i % 2,
                active_us: 5_000,
                idle_us: 0,
                bytes: 100,
            })
            .collect();
        let bytes = ct.encode_v2_with_telemetry(&rows).0;
        let passes = analyze_archive(&bytes).unwrap();
        assert!(passes.has_telemetry);
        // One retransmission sample per flow record; RTT samples only for
        // flows the accumulator actually measured.
        assert_eq!(passes.retransmissions_per_flow.len(), n);
        let with_rtt = rows.iter().filter(|r| r.rtt_samples > 0).count();
        assert_eq!(passes.measured_rtt_ms.len(), with_rtt);
        assert!(passes.measured_rtt_ms.quantile(0.5).unwrap() >= 1.0);
        // A plain 2.1 archive of the same trace: telemetry CDFs stay
        // empty while the complexity score still comes out of the flow
        // records themselves.
        let plain = ct.to_bytes_v2();
        let p = analyze_archive(&plain).unwrap();
        assert!(!p.has_telemetry);
        assert!(p.measured_rtt_ms.is_empty());
        assert!(p.retransmissions_per_flow.is_empty());
        assert!(p.complexity.score > 0.0 && p.complexity.score <= 100.0);
        assert_eq!(p.complexity.score, passes.complexity.score);
    }

    #[test]
    fn v1_fixture_passes_equal_its_v2_twin() {
        // The golden fixtures hold one archive in both revisions; v1
        // reads as one section without metadata or telemetry.
        let v1 = include_bytes!("../../../tests/fixtures/web120_seed20050320.fzc");
        let v2 = include_bytes!("../../../tests/fixtures/web120_seed20050320.fzc2");
        let passes = analyze_archive(v1).unwrap();
        assert_eq!(passes, analyze_archive(v2).unwrap());
        assert_eq!(ArchiveReader::open(v1).unwrap().sections().count(), 1);
        assert!(!passes.has_telemetry);
    }
}
