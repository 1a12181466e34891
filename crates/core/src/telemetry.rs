//! The **v2.2 per-flow telemetry side-section**: TCP dynamics the
//! accumulator already holds in hand — RTT estimates, retransmission
//! counts split by detection mechanism, idle/active time and byte
//! totals — persisted per flow, per section, after the v2.1 metadata
//! block of a v2 container.
//!
//! Like `FZM1`, the block is *optional and additive*: a pre-2.2 reader
//! never reaches it (the v2 section index tiles the payloads, and a
//! v2.1 reader stops after the metadata block only when nothing
//! follows — a 2.2 file is decoded by parsing `FZT1` where a v2.1
//! reader would have reported trailing garbage, so older *library*
//! revisions reject it while older *formats* remain fully readable by
//! this one). Stripping the block yields a byte-identical v2.1 file.
//! The wire layout (byte-level spec in `docs/FORMAT.md`):
//!
//! ```text
//! "FZT1" magic
//! varint telemetry-version (1)
//! varint section count (must equal the preamble's)
//! per section:
//!   varint flow count (must equal the section index entry's)
//!   per flow, in the section's record order:
//!     varint rtt_us          varint rtt_samples
//!     varint retrans_fast    varint retrans_timeout
//!     varint active_us       varint idle_us
//!     varint bytes
//! ```
//!
//! Telemetry rows are stored in the same stable `first_ts` order as the
//! section's flow records, so row *i* describes record *i* — a reader
//! joins them by index, no flow key needed.

use crate::datasets::put_varint;

/// Telemetry-block magic: "FZT1".
pub(crate) const TELEMETRY_MAGIC: [u8; 4] = *b"FZT1";
/// Telemetry-block version this reader writes and accepts.
pub(crate) const TELEMETRY_VERSION: u64 = 1;

/// One flow's TCP dynamics, derived during the accumulate pass.
///
/// All fields are plain totals; a flow the accumulator could not
/// measure (pure UDP, no handshake observed) carries zeros in the
/// fields it could not fill — `rtt_samples == 0` means "no RTT
/// estimate", not "zero RTT".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowTelemetry {
    /// Mean round-trip estimate in microseconds (0 when no sample).
    pub rtt_us: u64,
    /// RTT samples taken (handshake + ack-clock).
    pub rtt_samples: u64,
    /// Retransmissions detected via triple duplicate ACKs (fast
    /// retransmit).
    pub retrans_fast: u64,
    /// Retransmissions with no duplicate-ACK evidence (timeout-shaped).
    pub retrans_timeout: u64,
    /// Microseconds of active time: inter-packet gaps below the idle
    /// threshold, summed.
    pub active_us: u64,
    /// Microseconds of idle time: inter-packet gaps at or above the
    /// idle threshold, summed.
    pub idle_us: u64,
    /// Payload bytes carried by the flow (both directions).
    pub bytes: u64,
}

impl FlowTelemetry {
    /// Total retransmissions, both mechanisms.
    pub fn retransmissions(&self) -> u64 {
        self.retrans_fast + self.retrans_timeout
    }
}

/// One archive section's telemetry rows, in the section's stable
/// record order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SectionTelemetry {
    /// One row per flow record, index-joined to the section payload.
    pub flows: Vec<FlowTelemetry>,
}

/// The whole trailing telemetry block: one [`SectionTelemetry`] per
/// archive section, in section order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchiveTelemetry {
    /// Per-section telemetry, in section order.
    pub sections: Vec<SectionTelemetry>,
}

impl ArchiveTelemetry {
    /// Total flows across every section.
    pub fn flow_count(&self) -> u64 {
        self.sections.iter().map(|s| s.flows.len() as u64).sum()
    }

    /// Serializes the block (appended after the v2.1 metadata block).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&TELEMETRY_MAGIC);
        put_varint(TELEMETRY_VERSION, out);
        put_varint(self.sections.len() as u64, out);
        for s in &self.sections {
            put_varint(s.flows.len() as u64, out);
            for f in &s.flows {
                put_varint(f.rtt_us, out);
                put_varint(f.rtt_samples, out);
                put_varint(f.retrans_fast, out);
                put_varint(f.retrans_timeout, out);
                put_varint(f.active_us, out);
                put_varint(f.idle_us, out);
                put_varint(f.bytes, out);
            }
        }
    }

    /// Folds the rows into the headline aggregate: what `info` and
    /// `query` print, and what a compress run reports for the block it
    /// wrote. The rows may come from an archive this program did not
    /// write, so the totals saturate instead of overflowing.
    pub fn summary(&self) -> TelemetrySummary {
        let mut s = TelemetrySummary {
            flows: self.flow_count(),
            rtt_flows: 0,
            rtt_samples: 0,
            mean_rtt_us: 0,
            p95_rtt_us: 0,
            retrans_fast: 0,
            retrans_timeout: 0,
        };
        let mut rtts: Vec<u64> = Vec::new();
        for f in self.sections.iter().flat_map(|sec| &sec.flows) {
            s.rtt_samples = s.rtt_samples.saturating_add(f.rtt_samples);
            s.retrans_fast = s.retrans_fast.saturating_add(f.retrans_fast);
            s.retrans_timeout = s.retrans_timeout.saturating_add(f.retrans_timeout);
            if f.rtt_samples > 0 {
                rtts.push(f.rtt_us);
            }
        }
        if !rtts.is_empty() {
            rtts.sort_unstable();
            s.rtt_flows = rtts.len() as u64;
            // A mean of `u64`s is a `u64`; only the sum needs the width.
            let sum: u128 = rtts.iter().map(|&r| u128::from(r)).sum();
            s.mean_rtt_us = (sum / u128::from(s.rtt_flows)) as u64;
            // Nearest-rank p95: the smallest value ≥ 95% of the sample.
            s.p95_rtt_us = rtts[(rtts.len() * 95).div_ceil(100).max(1) - 1];
        }
        s
    }
}

/// Aggregate view of the rev 2.2 `FZT1` per-flow telemetry rows — the
/// RTT and retransmission headline figures `info` and `query` print
/// without handing the caller every row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySummary {
    /// Telemetry rows (one per stored flow).
    pub flows: u64,
    /// Flows that produced at least one RTT sample.
    pub rtt_flows: u64,
    /// RTT samples across all flows (handshake + ack-clock).
    pub rtt_samples: u64,
    /// Mean of the per-flow smoothed RTT estimates, microseconds
    /// (over [`TelemetrySummary::rtt_flows`]; 0 when no flow sampled).
    pub mean_rtt_us: u64,
    /// 95th percentile of the per-flow RTT estimates, microseconds.
    pub p95_rtt_us: u64,
    /// Retransmissions detected via triple duplicate ACKs.
    pub retrans_fast: u64,
    /// Retransmissions attributed to timeout (no dup-ACK evidence).
    pub retrans_timeout: u64,
}

impl TelemetrySummary {
    /// Fast + timeout retransmissions combined (saturating, like the
    /// totals).
    pub fn retransmissions(&self) -> u64 {
        self.retrans_fast.saturating_add(self.retrans_timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::CodecError;

    fn sample() -> ArchiveTelemetry {
        let flow = |i: u64| FlowTelemetry {
            rtt_us: 12_000 + i * 137,
            rtt_samples: 3 + i % 4,
            retrans_fast: i % 3,
            retrans_timeout: i % 2,
            active_us: 800_000 + i * 10_000,
            idle_us: i * 1_000_000,
            bytes: 40_000 + i * 512,
        };
        ArchiveTelemetry {
            sections: vec![
                SectionTelemetry {
                    flows: (0..17).map(flow).collect(),
                },
                SectionTelemetry { flows: Vec::new() },
                SectionTelemetry {
                    flows: (17..23).map(flow).collect(),
                },
            ],
        }
    }

    #[test]
    fn summary_of_rows_past_u64_totals_saturates() {
        // Rows a crafted archive can carry: two RTTs of 2^63 µs, and
        // counters whose totals pass `u64::MAX`.
        let row = FlowTelemetry {
            rtt_us: 1 << 63,
            rtt_samples: u64::MAX,
            retrans_fast: u64::MAX,
            retrans_timeout: 1,
            ..FlowTelemetry::default()
        };
        let t = ArchiveTelemetry {
            sections: vec![SectionTelemetry {
                flows: vec![row, row],
            }],
        };
        let s = t.summary();
        assert_eq!((s.flows, s.rtt_flows), (2, 2));
        assert_eq!((s.mean_rtt_us, s.p95_rtt_us), (1 << 63, 1 << 63));
        assert_eq!((s.rtt_samples, s.retrans_fast), (u64::MAX, u64::MAX));
        assert_eq!(s.retrans_timeout, 2);
        assert_eq!(s.retransmissions(), u64::MAX);
    }

    #[test]
    fn telemetry_block_roundtrips() {
        let t = sample();
        let mut bytes = Vec::new();
        t.encode(&mut bytes);
        let mut pos = 0;
        let back = ArchiveTelemetry::decode(&bytes, &mut pos, 3).unwrap();
        assert_eq!(pos, bytes.len());
        assert_eq!(back, t);
        assert_eq!(back.flow_count(), 23);
    }

    #[test]
    fn telemetry_truncation_rejected_at_every_cut() {
        let mut bytes = Vec::new();
        sample().encode(&mut bytes);
        for cut in 0..bytes.len() {
            let mut pos = 0;
            assert!(
                ArchiveTelemetry::decode(&bytes[..cut], &mut pos, 3).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn telemetry_corruption_rejected() {
        let mut bytes = Vec::new();
        sample().encode(&mut bytes);
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        let mut pos = 0;
        assert_eq!(
            ArchiveTelemetry::decode(&bad, &mut pos, 3),
            Err(CodecError::Telemetry("bad telemetry magic"))
        );
        // Wrong section count.
        let mut pos = 0;
        assert_eq!(
            ArchiveTelemetry::decode(&bytes, &mut pos, 2),
            Err(CodecError::Telemetry("section count mismatch"))
        );
        // Future version.
        let mut bad = bytes.clone();
        bad[4] = 9;
        let mut pos = 0;
        assert_eq!(
            ArchiveTelemetry::decode(&bad, &mut pos, 3),
            Err(CodecError::Telemetry("unsupported telemetry version"))
        );
    }

    #[test]
    fn rtt_without_samples_rejected() {
        let t = ArchiveTelemetry {
            sections: vec![SectionTelemetry {
                flows: vec![FlowTelemetry {
                    rtt_us: 500,
                    rtt_samples: 0,
                    ..FlowTelemetry::default()
                }],
            }],
        };
        let mut bytes = Vec::new();
        t.encode(&mut bytes);
        let mut pos = 0;
        assert_eq!(
            ArchiveTelemetry::decode(&bytes, &mut pos, 1),
            Err(CodecError::Telemetry("rtt estimate without samples"))
        );
    }

    #[test]
    fn helpers_compute_totals_and_rates() {
        let f = FlowTelemetry {
            rtt_us: 20_000,
            rtt_samples: 4,
            retrans_fast: 2,
            retrans_timeout: 1,
            active_us: 2_000_000,
            idle_us: 5_000_000,
            bytes: 1_000_000,
        };
        assert_eq!(f.retransmissions(), 3);
    }
}
