//! Van Jacobson TCP/IP header compression (RFC 1144), adapted for packet
//! trace storage exactly as §5 of the paper describes.
//!
//! The original VJ scheme targets low-speed serial links: per-connection
//! state lets most headers shrink to a few delta bytes. The paper adapts it
//! to high-speed trace storage with two changes:
//!
//! * a **2-byte timestamp** is added to every compressed header (traces
//!   need timing; links do not);
//! * the connection identifier grows from 1 byte to **3 bytes**, because a
//!   backbone link holds far more simultaneous flows than a modem line;
//! * the TCP checksum is *not* carried (trace storage does not replay
//!   payload, so there is nothing to verify).
//!
//! The result: "minimal encoded headers are of 6 bytes" — change mask (1) +
//! connection id (3) + timestamp delta (2). The analytic ratio of Eq.
//! (5)–(6) is [`Method::VanJacobson`](crate::model::Method::VanJacobson).
//!
//! Wire format (one record per packet):
//!
//! ```text
//! mask(1) cid(3) timestamp(2|8) [delta fields...]
//!
//! mask bits:
//!   0x80 FULL   — record carries a complete header (new/reset connection)
//!   0x40 TS_EXT — timestamp delta exceeds 16 bits; stored as a varint
//!   0x01 Δseq   0x02 Δack   0x04 Δwin   0x08 Δipid   0x10 Δlen
//!   0x20 flags/ttl bytes follow
//! ```
//!
//! Deltas are zigzag varints against the connection's previous packet, so
//! the common case (pure ack, same window, len unchanged) costs exactly
//! the paper's six bytes: mask + 3-byte connection id + 2-byte timestamp.
//!
//! # Example
//!
//! ```
//! use flowzip_trace::prelude::*;
//! use flowzip_paper::comp::{VjCompressor, VjDecompressor};
//!
//! let t = FiveTuple::tcp(Ipv4Addr::new(10,0,0,1), 4000, Ipv4Addr::new(10,0,0,2), 80);
//! let mut trace = Trace::new();
//! for i in 0..10u64 {
//!     trace.push(PacketRecord::builder()
//!         .timestamp(Timestamp::from_micros(i * 100))
//!         .tuple(t).seq(1000 + 10 * i as u32).flags(TcpFlags::ACK)
//!         .build());
//! }
//! let bytes = VjCompressor::new().compress_trace(&trace);
//! let back = VjDecompressor::new().decompress_trace(&bytes).unwrap();
//! assert_eq!(back, trace);
//! ```

use crate::leb128::{self, write_uvarint, write_zigzag};
use flowzip_trace::prelude::*;
use std::collections::HashMap;
use std::fmt;

const MASK_FULL: u8 = 0x80;
const MASK_TS_EXT: u8 = 0x40;
const MASK_SEQ: u8 = 0x01;
const MASK_ACK: u8 = 0x02;
const MASK_WIN: u8 = 0x04;
const MASK_IPID: u8 = 0x08;
const MASK_LEN: u8 = 0x10;
const MASK_FLAGS: u8 = 0x20;

/// Largest connection id the 3-byte field can carry.
pub const MAX_CID: u32 = 0x00FF_FFFF;

/// Errors from decoding a VJ stream.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VjError {
    /// Stream ended inside a record.
    Truncated,
    /// A compressed record referenced a connection never introduced with a
    /// full header.
    UnknownConnection(u32),
    /// More connections than the 3-byte id space allows.
    TooManyConnections,
}

impl fmt::Display for VjError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VjError::Truncated => write!(f, "vj stream truncated"),
            VjError::UnknownConnection(cid) => write!(f, "unknown connection id {cid}"),
            VjError::TooManyConnections => {
                write!(f, "connection id space exhausted (> {MAX_CID})")
            }
        }
    }
}

impl std::error::Error for VjError {}

#[derive(Clone, Copy, Debug)]
struct ConnState {
    tuple: FiveTuple,
    ts: Timestamp,
    seq: u32,
    ack: u32,
    window: u16,
    ip_id: u16,
    payload_len: u16,
    flags: TcpFlags,
    ttl: u8,
}

impl ConnState {
    fn from_packet(p: &PacketRecord) -> ConnState {
        ConnState {
            tuple: p.tuple(),
            ts: p.timestamp(),
            seq: p.seq(),
            ack: p.ack(),
            window: p.window(),
            ip_id: p.ip_id(),
            payload_len: p.payload_len(),
            flags: p.flags(),
            ttl: p.ttl(),
        }
    }
}

/// Streaming VJ compressor: feed packets in trace order, collect bytes.
#[derive(Debug, Default)]
pub struct VjCompressor {
    conns: HashMap<FiveTuple, u32>,
    states: Vec<ConnState>,
    full_headers: u64,
    compressed_headers: u64,
}

impl VjCompressor {
    /// Creates a compressor with an empty connection table.
    pub fn new() -> VjCompressor {
        VjCompressor::default()
    }

    /// Number of full (uncompressed) headers emitted so far.
    pub fn full_headers(&self) -> u64 {
        self.full_headers
    }

    /// Number of delta-compressed headers emitted so far.
    pub fn compressed_headers(&self) -> u64 {
        self.compressed_headers
    }

    /// Compresses one packet, appending its record to `out`.
    ///
    /// # Errors
    ///
    /// Returns [`VjError::TooManyConnections`] after 2²⁴ distinct tuples.
    pub fn compress_packet(&mut self, p: &PacketRecord, out: &mut Vec<u8>) -> Result<(), VjError> {
        match self.conns.get(&p.tuple()) {
            None => {
                let cid = self.states.len() as u32;
                if cid > MAX_CID {
                    return Err(VjError::TooManyConnections);
                }
                self.conns.insert(p.tuple(), cid);
                self.states.push(ConnState::from_packet(p));
                self.full_headers += 1;
                emit_full(cid, p, out);
                Ok(())
            }
            Some(&cid) => {
                let state = &mut self.states[cid as usize];
                self.compressed_headers += 1;
                emit_compressed(cid, p, state, out);
                *state = ConnState::from_packet(p);
                Ok(())
            }
        }
    }

    /// Compresses a whole trace into a byte stream.
    ///
    /// # Panics
    ///
    /// Panics if the trace contains more than 2²⁴ distinct directional
    /// tuples (use [`VjCompressor::compress_packet`] to handle the error).
    pub fn compress_trace(&mut self, trace: &Trace) -> Vec<u8> {
        let mut out = Vec::with_capacity(trace.len() * 8);
        for p in trace {
            self.compress_packet(p, &mut out)
                .expect("connection id space exhausted");
        }
        out
    }
}

fn emit_full(cid: u32, p: &PacketRecord, out: &mut Vec<u8>) {
    out.push(MASK_FULL);
    out.extend_from_slice(&cid.to_be_bytes()[1..4]);
    let t = p.tuple();
    out.extend_from_slice(&t.src_ip.octets());
    out.extend_from_slice(&t.dst_ip.octets());
    out.extend_from_slice(&t.src_port.to_be_bytes());
    out.extend_from_slice(&t.dst_port.to_be_bytes());
    out.push(t.protocol.number());
    out.push(p.flags().bits());
    out.extend_from_slice(&p.seq().to_be_bytes());
    out.extend_from_slice(&p.ack().to_be_bytes());
    out.extend_from_slice(&p.window().to_be_bytes());
    out.extend_from_slice(&p.ip_id().to_be_bytes());
    out.push(p.ttl());
    out.extend_from_slice(&p.payload_len().to_be_bytes());
    out.extend_from_slice(&p.timestamp().as_micros().to_be_bytes());
}

fn emit_compressed(cid: u32, p: &PacketRecord, prev: &ConnState, out: &mut Vec<u8>) {
    let mut mask = 0u8;
    let delta_ts = p.timestamp().saturating_since(prev.ts).as_micros();
    if delta_ts > u16::MAX as u64 {
        mask |= MASK_TS_EXT;
    }
    if p.seq() != prev.seq {
        mask |= MASK_SEQ;
    }
    if p.ack() != prev.ack {
        mask |= MASK_ACK;
    }
    if p.window() != prev.window {
        mask |= MASK_WIN;
    }
    if p.ip_id() != prev.ip_id {
        mask |= MASK_IPID;
    }
    if p.payload_len() != prev.payload_len {
        mask |= MASK_LEN;
    }
    if p.flags() != prev.flags || p.ttl() != prev.ttl {
        mask |= MASK_FLAGS;
    }
    out.push(mask);
    out.extend_from_slice(&cid.to_be_bytes()[1..4]);
    if mask & MASK_TS_EXT != 0 {
        write_uvarint(delta_ts, out);
    } else {
        out.extend_from_slice(&(delta_ts as u16).to_be_bytes());
    }
    if mask & MASK_SEQ != 0 {
        write_zigzag(p.seq().wrapping_sub(prev.seq) as i32 as i64, out);
    }
    if mask & MASK_ACK != 0 {
        write_zigzag(p.ack().wrapping_sub(prev.ack) as i32 as i64, out);
    }
    if mask & MASK_WIN != 0 {
        write_zigzag(p.window() as i64 - prev.window as i64, out);
    }
    if mask & MASK_IPID != 0 {
        write_zigzag(p.ip_id() as i64 - prev.ip_id as i64, out);
    }
    if mask & MASK_LEN != 0 {
        write_zigzag(p.payload_len() as i64 - prev.payload_len as i64, out);
    }
    if mask & MASK_FLAGS != 0 {
        out.push(p.flags().bits());
        out.push(p.ttl());
    }
}

/// Decoder for streams produced by [`VjCompressor`].
#[derive(Debug, Default)]
pub struct VjDecompressor {
    states: Vec<ConnState>,
}

impl VjDecompressor {
    /// Creates a decompressor with an empty connection table.
    pub fn new() -> VjDecompressor {
        VjDecompressor::default()
    }

    /// Decompresses an entire stream back into a trace. The result is
    /// bit-exact: every header field and timestamp round-trips.
    ///
    /// # Errors
    ///
    /// Returns [`VjError`] on truncation or unknown connection ids.
    pub fn decompress_trace(&mut self, mut data: &[u8]) -> Result<Trace, VjError> {
        let mut trace = Trace::new();
        while !data.is_empty() {
            let (pkt, rest) = self.decode_record(data)?;
            trace.push(pkt);
            data = rest;
        }
        Ok(trace)
    }

    fn decode_record<'a>(&mut self, data: &'a [u8]) -> Result<(PacketRecord, &'a [u8]), VjError> {
        let mask = *data.first().ok_or(VjError::Truncated)?;
        let mut rd = Reader { data, pos: 1 };
        let cid = rd.read_u24()?;
        if mask & MASK_FULL != 0 {
            let src_ip = Ipv4Addr::from(rd.read_array::<4>()?);
            let dst_ip = Ipv4Addr::from(rd.read_array::<4>()?);
            let src_port = u16::from_be_bytes(rd.read_array::<2>()?);
            let dst_port = u16::from_be_bytes(rd.read_array::<2>()?);
            let proto = Protocol::new(rd.read_u8()?);
            let flags = TcpFlags::from_bits(rd.read_u8()?);
            let seq = u32::from_be_bytes(rd.read_array::<4>()?);
            let ack = u32::from_be_bytes(rd.read_array::<4>()?);
            let window = u16::from_be_bytes(rd.read_array::<2>()?);
            let ip_id = u16::from_be_bytes(rd.read_array::<2>()?);
            let ttl = rd.read_u8()?;
            let payload_len = u16::from_be_bytes(rd.read_array::<2>()?);
            let ts = Timestamp::from_micros(u64::from_be_bytes(rd.read_array::<8>()?));
            let pkt = PacketRecord::builder()
                .timestamp(ts)
                .src(src_ip, src_port)
                .dst(dst_ip, dst_port)
                .protocol(proto)
                .flags(flags)
                .seq(seq)
                .ack(ack)
                .window(window)
                .ip_id(ip_id)
                .ttl(ttl)
                .payload_len(payload_len)
                .build();
            if cid as usize == self.states.len() {
                self.states.push(ConnState::from_packet(&pkt));
            } else if (cid as usize) < self.states.len() {
                self.states[cid as usize] = ConnState::from_packet(&pkt);
            } else {
                return Err(VjError::UnknownConnection(cid));
            }
            return Ok((pkt, &data[rd.pos..]));
        }

        let prev = *self
            .states
            .get(cid as usize)
            .ok_or(VjError::UnknownConnection(cid))?;
        let ts = if mask & MASK_TS_EXT != 0 {
            prev.ts + Duration::from_micros(rd.read_uvarint()?)
        } else {
            let d = u16::from_be_bytes(rd.read_array::<2>()?);
            prev.ts + Duration::from_micros(d as u64)
        };
        let seq = if mask & MASK_SEQ != 0 {
            prev.seq.wrapping_add(rd.read_zigzag()? as i32 as u32)
        } else {
            prev.seq
        };
        let ack = if mask & MASK_ACK != 0 {
            prev.ack.wrapping_add(rd.read_zigzag()? as i32 as u32)
        } else {
            prev.ack
        };
        let window = if mask & MASK_WIN != 0 {
            (prev.window as i64 + rd.read_zigzag()?) as u16
        } else {
            prev.window
        };
        let ip_id = if mask & MASK_IPID != 0 {
            (prev.ip_id as i64 + rd.read_zigzag()?) as u16
        } else {
            prev.ip_id
        };
        let payload_len = if mask & MASK_LEN != 0 {
            (prev.payload_len as i64 + rd.read_zigzag()?) as u16
        } else {
            prev.payload_len
        };
        let (flags, ttl) = if mask & MASK_FLAGS != 0 {
            (TcpFlags::from_bits(rd.read_u8()?), rd.read_u8()?)
        } else {
            (prev.flags, prev.ttl)
        };
        let pkt = PacketRecord::builder()
            .timestamp(ts)
            .tuple(prev.tuple)
            .flags(flags)
            .seq(seq)
            .ack(ack)
            .window(window)
            .ip_id(ip_id)
            .ttl(ttl)
            .payload_len(payload_len)
            .build();
        self.states[cid as usize] = ConnState::from_packet(&pkt);
        Ok((pkt, &data[rd.pos..]))
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn read_u8(&mut self) -> Result<u8, VjError> {
        let b = *self.data.get(self.pos).ok_or(VjError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn read_array<const N: usize>(&mut self) -> Result<[u8; N], VjError> {
        if self.pos + N > self.data.len() {
            return Err(VjError::Truncated);
        }
        let mut a = [0u8; N];
        a.copy_from_slice(&self.data[self.pos..self.pos + N]);
        self.pos += N;
        Ok(a)
    }

    fn read_u24(&mut self) -> Result<u32, VjError> {
        let b = self.read_array::<3>()?;
        Ok(u32::from_be_bytes([0, b[0], b[1], b[2]]))
    }

    fn read_uvarint(&mut self) -> Result<u64, VjError> {
        leb128::read_uvarint(self.data, &mut self.pos).ok_or(VjError::Truncated)
    }

    fn read_zigzag(&mut self) -> Result<i64, VjError> {
        leb128::read_zigzag(self.data, &mut self.pos).ok_or(VjError::Truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(port: u16) -> FiveTuple {
        FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            port,
            Ipv4Addr::new(192, 168, 9, 9),
            80,
        )
    }

    fn roundtrip(trace: &Trace) -> Trace {
        let bytes = VjCompressor::new().compress_trace(trace);
        VjDecompressor::new().decompress_trace(&bytes).unwrap()
    }

    #[test]
    fn single_flow_roundtrip() {
        let mut trace = Trace::new();
        for i in 0..20u64 {
            trace.push(
                PacketRecord::builder()
                    .timestamp(Timestamp::from_micros(i * 500))
                    .tuple(tuple(4000))
                    .seq(1000 + (i * 1460) as u32)
                    .ack(700)
                    .flags(TcpFlags::ACK)
                    .payload_len(1460)
                    .ip_id(i as u16)
                    .build(),
            );
        }
        assert_eq!(roundtrip(&trace), trace);
    }

    #[test]
    fn steady_state_header_is_six_bytes() {
        // Identical repeated header except timestamp: only mask+cid+ts.
        let mut trace = Trace::new();
        for i in 0..11u64 {
            trace.push(
                PacketRecord::builder()
                    .timestamp(Timestamp::from_micros(i * 100))
                    .tuple(tuple(4100))
                    .flags(TcpFlags::ACK)
                    .build(),
            );
        }
        let mut c = VjCompressor::new();
        let bytes = c.compress_trace(&trace);
        assert_eq!(c.full_headers(), 1);
        assert_eq!(c.compressed_headers(), 10);
        let full_len = 1 + 3 + 29 + 8; // mask + cid + header + abs ts
        assert_eq!(bytes.len(), full_len + 10 * 6);
    }

    #[test]
    fn multi_flow_interleaved_roundtrip() {
        let mut trace = Trace::new();
        for i in 0..60u64 {
            let port = 4000 + (i % 3) as u16;
            trace.push(
                PacketRecord::builder()
                    .timestamp(Timestamp::from_micros(i * 1000))
                    .tuple(tuple(port))
                    .seq(i as u32 * 9)
                    .flags(if i % 5 == 0 {
                        TcpFlags::PSH | TcpFlags::ACK
                    } else {
                        TcpFlags::ACK
                    })
                    .payload_len((i % 7) as u16 * 100)
                    .build(),
            );
        }
        assert_eq!(roundtrip(&trace), trace);
    }

    #[test]
    fn bidirectional_flow_uses_two_cids() {
        let t = tuple(4200);
        let mut trace = Trace::new();
        trace.push(
            PacketRecord::builder()
                .tuple(t)
                .flags(TcpFlags::SYN)
                .build(),
        );
        trace.push(
            PacketRecord::builder()
                .timestamp(Timestamp::from_micros(10))
                .tuple(t.reversed())
                .flags(TcpFlags::SYN | TcpFlags::ACK)
                .build(),
        );
        let mut c = VjCompressor::new();
        let _ = c.compress_trace(&trace);
        assert_eq!(c.full_headers(), 2); // two directions = two connections
    }

    #[test]
    fn large_time_gap_uses_extended_timestamp() {
        let mut trace = Trace::new();
        trace.push(PacketRecord::builder().tuple(tuple(4300)).build());
        trace.push(
            PacketRecord::builder()
                .tuple(tuple(4300))
                .timestamp(Timestamp::from_secs(120))
                .build(),
        );
        assert_eq!(roundtrip(&trace), trace);
    }

    #[test]
    fn sequence_wraparound_roundtrips() {
        let mut trace = Trace::new();
        trace.push(
            PacketRecord::builder()
                .tuple(tuple(4400))
                .seq(u32::MAX - 100)
                .build(),
        );
        trace.push(
            PacketRecord::builder()
                .tuple(tuple(4400))
                .timestamp(Timestamp::from_micros(1))
                .seq(500) // wrapped
                .build(),
        );
        assert_eq!(roundtrip(&trace), trace);
    }

    #[test]
    fn truncated_stream_detected() {
        let mut trace = Trace::new();
        trace.push(PacketRecord::builder().tuple(tuple(4500)).build());
        let bytes = VjCompressor::new().compress_trace(&trace);
        for cut in 1..bytes.len() {
            assert!(
                VjDecompressor::new()
                    .decompress_trace(&bytes[..cut])
                    .is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn unknown_cid_detected() {
        // A compressed record without a prior full header.
        let stream = [0x00u8, 0x00, 0x00, 0x07, 0x00, 0x10];
        let err = VjDecompressor::new().decompress_trace(&stream).unwrap_err();
        assert_eq!(err, VjError::UnknownConnection(7));
    }

    #[test]
    fn compression_beats_tsh_for_long_flows() {
        let mut trace = Trace::new();
        for i in 0..1000u64 {
            trace.push(
                PacketRecord::builder()
                    .timestamp(Timestamp::from_micros(i * 40))
                    .tuple(tuple(4600))
                    .seq((i * 1460) as u32)
                    .ip_id(i as u16)
                    .payload_len(1460)
                    .flags(TcpFlags::ACK)
                    .build(),
            );
        }
        let bytes = VjCompressor::new().compress_trace(&trace);
        let tsh = flowzip_trace::tsh::file_size(&trace);
        let ratio = bytes.len() as f64 / tsh as f64;
        assert!(
            ratio < 0.30,
            "vj ratio {ratio} should beat 30% on a long flow"
        );
    }

    #[test]
    fn zigzag_edge_values() {
        for v in [0i64, 1, -1, 63, -64, i32::MAX as i64, i32::MIN as i64] {
            let mut buf = Vec::new();
            write_zigzag(v, &mut buf);
            let mut r = Reader { data: &buf, pos: 0 };
            assert_eq!(r.read_zigzag().unwrap(), v);
        }
    }
}
