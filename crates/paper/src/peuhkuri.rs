//! Peuhkuri-style lossy flow-based packet trace reduction.
//!
//! Reference \[5\] of the paper (M. Peuhkuri, *A method to compress and
//! anonymize packet traces*, IMW 2001) stores per-flow constants once and
//! keeps only a small per-packet record, trading exact header recovery for
//! storage: the paper quotes its compression ratio as **bounded by 16%**
//! of the original header trace.
//!
//! This implementation follows that architecture:
//!
//! * a **flow table** holds each distinct directional 5-tuple once
//!   (13 bytes);
//! * each **packet record** is `varint flow-id + varint µs time delta +
//!   varint payload length + flag byte` — about 6 bytes in practice, i.e.
//!   ~16% of the 40-byte header;
//! * sequence/ack numbers, windows, IP ids and TTLs are *not* stored
//!   (that is where the loss lives); decompression re-synthesizes
//!   plausible values (cumulative sequence numbers, fixed window).
//!
//! The analytic ratio is [`Method::Peuhkuri`](crate::model::Method::Peuhkuri).
//!
//! # Example
//!
//! ```
//! use flowzip_trace::prelude::*;
//! use flowzip_paper::peuhkuri::{PeuhkuriCompressor, decompress};
//!
//! let t = FiveTuple::tcp(Ipv4Addr::new(10,0,0,1), 4000, Ipv4Addr::new(10,0,0,2), 80);
//! let mut trace = Trace::new();
//! for i in 0..50u64 {
//!     trace.push(PacketRecord::builder()
//!         .timestamp(Timestamp::from_micros(i * 100))
//!         .tuple(t).payload_len(1000).flags(TcpFlags::ACK).build());
//! }
//! let bytes = PeuhkuriCompressor::new().compress_trace(&trace);
//! let back = decompress(&bytes).unwrap();
//! assert_eq!(back.len(), trace.len());
//! // Lossy, but flow identity, timing, sizes and flags survive:
//! assert_eq!(back.packets()[7].tuple(), trace.packets()[7].tuple());
//! assert_eq!(back.packets()[7].timestamp(), trace.packets()[7].timestamp());
//! ```

use crate::leb128::{read_uvarint, write_uvarint};
use flowzip_trace::prelude::*;
use std::collections::HashMap;
use std::fmt;

/// Magic prefix of the container ("PK" for Peuhkuri + version 1).
pub const MAGIC: [u8; 4] = *b"PKT1";

/// Errors from decoding a Peuhkuri stream.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PeuhkuriError {
    /// Missing or wrong magic.
    BadMagic,
    /// Stream ended inside a structure.
    Truncated,
    /// A packet referenced a flow id past the flow table.
    UnknownFlow(u64),
}

impl fmt::Display for PeuhkuriError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeuhkuriError::BadMagic => write!(f, "bad peuhkuri container magic"),
            PeuhkuriError::Truncated => write!(f, "peuhkuri stream truncated"),
            PeuhkuriError::UnknownFlow(id) => write!(f, "unknown flow id {id}"),
        }
    }
}

impl std::error::Error for PeuhkuriError {}

/// Streaming compressor: collects the flow table and packet records, then
/// [`PeuhkuriCompressor::finish`] (or `compress_trace`) emits the container.
#[derive(Debug, Default)]
pub struct PeuhkuriCompressor {
    flows: HashMap<FiveTuple, u64>,
    flow_order: Vec<FiveTuple>,
    records: Vec<u8>,
    last_ts: Timestamp,
    packets: u64,
}

impl PeuhkuriCompressor {
    /// Creates an empty compressor.
    pub fn new() -> PeuhkuriCompressor {
        PeuhkuriCompressor::default()
    }

    /// Adds one packet (packets must arrive in timestamp order; time
    /// deltas are stream-relative).
    pub fn push(&mut self, p: &PacketRecord) {
        let next_id = self.flows.len() as u64;
        let id = *self.flows.entry(p.tuple()).or_insert_with(|| {
            self.flow_order.push(p.tuple());
            next_id
        });
        let delta = p.timestamp().saturating_since(self.last_ts).as_micros();
        self.last_ts = p.timestamp();
        write_uvarint(id, &mut self.records);
        write_uvarint(delta, &mut self.records);
        write_uvarint(p.payload_len() as u64, &mut self.records);
        self.records.push(p.flags().bits());
        self.packets += 1;
    }

    /// Packets pushed so far.
    pub fn packet_count(&self) -> u64 {
        self.packets
    }

    /// Distinct flows seen so far.
    pub fn flow_count(&self) -> usize {
        self.flow_order.len()
    }

    /// Serializes the container: magic, flow table, packet records.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.flow_order.len() * 13 + self.records.len());
        out.extend_from_slice(&MAGIC);
        write_uvarint(self.flow_order.len() as u64, &mut out);
        write_uvarint(self.packets, &mut out);
        for t in &self.flow_order {
            out.extend_from_slice(&t.src_ip.octets());
            out.extend_from_slice(&t.dst_ip.octets());
            out.extend_from_slice(&t.src_port.to_be_bytes());
            out.extend_from_slice(&t.dst_port.to_be_bytes());
            out.push(t.protocol.number());
        }
        out.extend_from_slice(&self.records);
        out
    }

    /// Convenience: compresses a whole trace in one call.
    pub fn compress_trace(mut self, trace: &Trace) -> Vec<u8> {
        for p in trace {
            self.push(p);
        }
        self.finish()
    }
}

/// Decompresses a Peuhkuri container into a trace.
///
/// Timing, flow identity, payload sizes and flags are exact; sequence
/// numbers are re-synthesized cumulatively per flow (starting at a fixed
/// base), acks/windows/ids take fixed defaults — the documented loss.
///
/// # Errors
///
/// Returns [`PeuhkuriError`] on malformed input.
pub fn decompress(data: &[u8]) -> Result<Trace, PeuhkuriError> {
    if data.len() < 4 || data[0..4] != MAGIC {
        return Err(PeuhkuriError::BadMagic);
    }
    let mut pos = 4usize;
    let flow_count = read_uvarint(data, &mut pos).ok_or(PeuhkuriError::Truncated)?;
    let packet_count = read_uvarint(data, &mut pos).ok_or(PeuhkuriError::Truncated)?;
    let mut flows = Vec::with_capacity(flow_count as usize);
    for _ in 0..flow_count {
        if pos + 13 > data.len() {
            return Err(PeuhkuriError::Truncated);
        }
        let b = &data[pos..pos + 13];
        flows.push(FiveTuple::new(
            Ipv4Addr::new(b[0], b[1], b[2], b[3]),
            u16::from_be_bytes([b[8], b[9]]),
            Ipv4Addr::new(b[4], b[5], b[6], b[7]),
            u16::from_be_bytes([b[10], b[11]]),
            Protocol::new(b[12]),
        ));
        pos += 13;
    }
    let mut next_seq: Vec<u32> = vec![1_000; flows.len()];
    let mut trace = Trace::with_capacity(packet_count as usize);
    let mut now = Timestamp::ZERO;
    for _ in 0..packet_count {
        let id = read_uvarint(data, &mut pos).ok_or(PeuhkuriError::Truncated)?;
        let delta = read_uvarint(data, &mut pos).ok_or(PeuhkuriError::Truncated)?;
        let len = read_uvarint(data, &mut pos).ok_or(PeuhkuriError::Truncated)? as u16;
        let flags = *data.get(pos).ok_or(PeuhkuriError::Truncated)?;
        pos += 1;
        let tuple = *flows
            .get(id as usize)
            .ok_or(PeuhkuriError::UnknownFlow(id))?;
        now += Duration::from_micros(delta);
        let seq = next_seq[id as usize];
        next_seq[id as usize] = seq.wrapping_add(len as u32);
        trace.push(
            PacketRecord::builder()
                .timestamp(now)
                .tuple(tuple)
                .flags(TcpFlags::from_bits(flags))
                .payload_len(len)
                .seq(seq)
                .build(),
        );
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(port: u16) -> FiveTuple {
        FiveTuple::tcp(
            Ipv4Addr::new(10, 1, 1, 1),
            port,
            Ipv4Addr::new(172, 16, 0, 9),
            80,
        )
    }

    fn web_like_trace(flows: u16, pkts_per_flow: u64) -> Trace {
        let mut trace = Trace::new();
        let mut ts = 0u64;
        for f in 0..flows {
            for i in 0..pkts_per_flow {
                ts += 37;
                trace.push(
                    PacketRecord::builder()
                        .timestamp(Timestamp::from_micros(ts))
                        .tuple(tuple(4000 + f))
                        .payload_len(if i % 3 == 0 { 0 } else { 1460 })
                        .flags(if i == 0 { TcpFlags::SYN } else { TcpFlags::ACK })
                        .seq(i as u32 * 1460)
                        .build(),
                );
            }
        }
        trace
    }

    #[test]
    fn lossless_fields_roundtrip() {
        let trace = web_like_trace(5, 20);
        let bytes = PeuhkuriCompressor::new().compress_trace(&trace);
        let back = decompress(&bytes).unwrap();
        assert_eq!(back.len(), trace.len());
        for (a, b) in trace.iter().zip(back.iter()) {
            assert_eq!(a.tuple(), b.tuple());
            assert_eq!(a.timestamp(), b.timestamp());
            assert_eq!(a.payload_len(), b.payload_len());
            assert_eq!(a.flags(), b.flags());
        }
    }

    #[test]
    fn sequence_numbers_are_synthesized_cumulatively() {
        let trace = web_like_trace(1, 5);
        let back = decompress(&PeuhkuriCompressor::new().compress_trace(&trace)).unwrap();
        let mut expect = 1_000u32;
        for p in &back {
            assert_eq!(p.seq(), expect);
            expect = expect.wrapping_add(p.payload_len() as u32);
        }
    }

    #[test]
    fn ratio_is_near_the_sixteen_percent_bound() {
        // Realistic mix: enough packets per flow to amortize the table.
        let trace = web_like_trace(50, 40);
        let bytes = PeuhkuriCompressor::new().compress_trace(&trace);
        let ratio = bytes.len() as f64 / flowzip_trace::tsh::file_size(&trace) as f64;
        assert!(
            (0.08..=0.20).contains(&ratio),
            "expected ratio near 16%, got {:.3}",
            ratio
        );
    }

    #[test]
    fn empty_trace_roundtrip() {
        let bytes = PeuhkuriCompressor::new().compress_trace(&Trace::new());
        let back = decompress(&bytes).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decompress(b"nope"), Err(PeuhkuriError::BadMagic));
        assert_eq!(decompress(b""), Err(PeuhkuriError::BadMagic));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let trace = web_like_trace(2, 3);
        let bytes = PeuhkuriCompressor::new().compress_trace(&trace);
        for cut in 4..bytes.len() {
            assert!(decompress(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn counts_are_tracked() {
        let mut c = PeuhkuriCompressor::new();
        let trace = web_like_trace(3, 4);
        for p in &trace {
            c.push(p);
        }
        assert_eq!(c.packet_count(), 12);
        assert_eq!(c.flow_count(), 3);
    }
}
