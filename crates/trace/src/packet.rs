//! A single captured TCP/IP header record.

use crate::error::TraceError;
use crate::flags::TcpFlags;
use crate::time::Timestamp;
use crate::tuple::{FiveTuple, Protocol};
use std::fmt;
use std::net::Ipv4Addr;

/// Length in bytes of the TCP/IP header material a trace record stands for
/// (20-byte IPv4 header + 20-byte TCP header, no options) — the denominator
/// in every compression-ratio formula in §5 of the paper.
pub const HEADER_BYTES: u32 = 40;

/// One packet's worth of header + timing information, the unit every
/// compressor in this workspace consumes.
///
/// The fields mirror what a TSH record can carry: the full 5-tuple, the raw
/// TCP flag byte, sequence/acknowledgement numbers, receive window, IP id,
/// TTL and lengths. Payload bytes themselves are never stored — header
/// traces are the paper's storage model.
///
/// Construct with [`PacketRecord::builder`]; all fields have getters.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PacketRecord {
    timestamp: Timestamp,
    tuple: FiveTuple,
    flags: TcpFlags,
    payload_len: u16,
    seq: u32,
    ack: u32,
    window: u16,
    ip_id: u16,
    ttl: u8,
}

impl PacketRecord {
    /// Starts building a packet record. Unset fields default to zero /
    /// unspecified addresses, protocol TCP.
    pub fn builder() -> PacketBuilder {
        PacketBuilder::new()
    }

    /// Capture timestamp.
    #[inline]
    pub const fn timestamp(&self) -> Timestamp {
        self.timestamp
    }

    /// The packet's directional five-tuple.
    #[inline]
    pub const fn tuple(&self) -> FiveTuple {
        self.tuple
    }

    /// TCP control bits.
    #[inline]
    pub const fn flags(&self) -> TcpFlags {
        self.flags
    }

    /// TCP payload length in bytes (IP total length minus headers).
    #[inline]
    pub const fn payload_len(&self) -> u16 {
        self.payload_len
    }

    /// IP total length: headers plus payload.
    #[inline]
    pub const fn ip_total_len(&self) -> u32 {
        HEADER_BYTES + self.payload_len as u32
    }

    /// TCP sequence number.
    #[inline]
    pub const fn seq(&self) -> u32 {
        self.seq
    }

    /// TCP acknowledgement number.
    #[inline]
    pub const fn ack(&self) -> u32 {
        self.ack
    }

    /// TCP receive window.
    #[inline]
    pub const fn window(&self) -> u16 {
        self.window
    }

    /// IPv4 identification field.
    #[inline]
    pub const fn ip_id(&self) -> u16 {
        self.ip_id
    }

    /// IPv4 time-to-live.
    #[inline]
    pub const fn ttl(&self) -> u8 {
        self.ttl
    }

    /// Source address shorthand.
    #[inline]
    pub const fn src_ip(&self) -> Ipv4Addr {
        self.tuple.src_ip
    }

    /// Destination address shorthand.
    #[inline]
    pub const fn dst_ip(&self) -> Ipv4Addr {
        self.tuple.dst_ip
    }

    /// Returns a copy with the five-tuple replaced (used by trace
    /// re-randomizers that keep timing but scramble addresses).
    #[must_use]
    pub fn with_tuple(mut self, tuple: FiveTuple) -> PacketRecord {
        self.tuple = tuple;
        self
    }

    /// Returns `true` when this packet carries application payload.
    #[inline]
    pub const fn has_payload(&self) -> bool {
        self.payload_len > 0
    }

    /// Writes the header bytes both capture codecs store per record:
    /// the 20-byte IPv4 header (no options, checksum filled in so
    /// verifying decoders accept it) and the first 16 bytes of the TCP
    /// header (ports, seq, ack, offset/flags, window).
    #[inline]
    pub(crate) fn write_wire_headers(&self, out: &mut [u8; WIRE_HEADER_BYTES]) {
        let total_len = self.ip_total_len().min(u16::MAX as u32) as u16;
        let ttl_protocol = [self.ttl, self.tuple.protocol.number()];
        let src = u32::from(self.tuple.src_ip);
        let dst = u32::from(self.tuple.dst_ip);
        // RFC 1071 over the header's 16-bit words, straight from the
        // fields (the flags/fragment word is zero). Nine words cannot
        // carry past bit 19, so two folds finish it.
        let sum = 0x4500
            + total_len as u32
            + self.ip_id as u32
            + u16::from_be_bytes(ttl_protocol) as u32
            + (src >> 16)
            + (src & 0xffff)
            + (dst >> 16)
            + (dst & 0xffff);
        let sum = (sum & 0xffff) + (sum >> 16);
        let sum = (sum & 0xffff) + (sum >> 16);

        let checksum = !(sum as u16);

        // Stored as five big-endian words rather than field by field:
        // IPv4 bytes 0–7 (version/IHL 0x45, TOS 0, total length, id,
        // flags/fragment 0), 8–15 (TTL, protocol, checksum, source),
        // 16–19 + TCP 0–3 (destination, ports), TCP 4–11 (seq, ack),
        // TCP 12–15 (data offset 5 words, flags, window).
        let words = [
            0x4500 << 48 | (total_len as u64) << 32 | (self.ip_id as u64) << 16,
            (u16::from_be_bytes(ttl_protocol) as u64) << 48 | (checksum as u64) << 32 | src as u64,
            (dst as u64) << 32 | (self.tuple.src_port as u64) << 16 | self.tuple.dst_port as u64,
            (self.seq as u64) << 32 | self.ack as u64,
        ];
        for (chunk, word) in out.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        let tail = 0x50 << 24 | (self.flags.bits() as u32) << 16 | self.window as u32;
        out[32..36].copy_from_slice(&tail.to_be_bytes());
    }
}

/// Bytes [`PacketRecord::write_wire_headers`] fills.
pub(crate) const WIRE_HEADER_BYTES: usize = 36;

/// First microsecond count past what the capture formats' 32-bit
/// seconds field can carry.
const TIMESTAMP_LIMIT_MICROS: u64 = (u32::MAX as u64 + 1) * 1_000_000;

/// Splits a timestamp into the capture formats' `(seconds,
/// microseconds)` pair.
///
/// # Errors
///
/// [`TraceError::FieldOutOfRange`] when the seconds overflow 32 bits.
#[inline]
pub(crate) fn wire_timestamp(ts: Timestamp) -> Result<(u32, u32), TraceError> {
    if ts.as_micros() >= TIMESTAMP_LIMIT_MICROS {
        return Err(TraceError::FieldOutOfRange {
            field: "timestamp_secs",
            value: ts.as_micros() / 1_000_000,
        });
    }
    Ok(ts.to_secs_micros())
}

impl fmt::Display for PacketRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [{}] len={}",
            self.timestamp, self.tuple, self.flags, self.payload_len
        )
    }
}

/// Incremental constructor for [`PacketRecord`].
///
/// # Example
///
/// ```
/// use flowzip_trace::prelude::*;
///
/// let p = PacketRecord::builder()
///     .timestamp(Timestamp::from_micros(42))
///     .src(Ipv4Addr::new(1, 2, 3, 4), 5555)
///     .dst(Ipv4Addr::new(9, 9, 9, 9), 80)
///     .flags(TcpFlags::PSH | TcpFlags::ACK)
///     .payload_len(512)
///     .seq(1000)
///     .ack(2000)
///     .build();
/// assert_eq!(p.ip_total_len(), 552);
/// ```
#[derive(Clone, Debug)]
pub struct PacketBuilder {
    timestamp: Timestamp,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    protocol: Protocol,
    flags: TcpFlags,
    payload_len: u16,
    seq: u32,
    ack: u32,
    window: u16,
    ip_id: u16,
    ttl: u8,
}

impl PacketBuilder {
    fn new() -> PacketBuilder {
        PacketBuilder {
            timestamp: Timestamp::ZERO,
            src_ip: Ipv4Addr::UNSPECIFIED,
            dst_ip: Ipv4Addr::UNSPECIFIED,
            src_port: 0,
            dst_port: 0,
            protocol: Protocol::TCP,
            flags: TcpFlags::EMPTY,
            payload_len: 0,
            seq: 0,
            ack: 0,
            window: 65_535,
            ip_id: 0,
            ttl: 64,
        }
    }

    /// Sets the capture timestamp.
    pub fn timestamp(mut self, ts: Timestamp) -> Self {
        self.timestamp = ts;
        self
    }

    /// Sets the source endpoint.
    pub fn src(mut self, ip: Ipv4Addr, port: u16) -> Self {
        self.src_ip = ip;
        self.src_port = port;
        self
    }

    /// Sets the destination endpoint.
    pub fn dst(mut self, ip: Ipv4Addr, port: u16) -> Self {
        self.dst_ip = ip;
        self.dst_port = port;
        self
    }

    /// Sets the whole five-tuple at once.
    pub fn tuple(mut self, t: FiveTuple) -> Self {
        self.src_ip = t.src_ip;
        self.dst_ip = t.dst_ip;
        self.src_port = t.src_port;
        self.dst_port = t.dst_port;
        self.protocol = t.protocol;
        self
    }

    /// Sets the IP protocol (default TCP).
    pub fn protocol(mut self, p: Protocol) -> Self {
        self.protocol = p;
        self
    }

    /// Sets the TCP control bits.
    pub fn flags(mut self, f: TcpFlags) -> Self {
        self.flags = f;
        self
    }

    /// Sets the TCP payload length.
    pub fn payload_len(mut self, len: u16) -> Self {
        self.payload_len = len;
        self
    }

    /// Sets the TCP sequence number.
    pub fn seq(mut self, seq: u32) -> Self {
        self.seq = seq;
        self
    }

    /// Sets the TCP acknowledgement number.
    pub fn ack(mut self, ack: u32) -> Self {
        self.ack = ack;
        self
    }

    /// Sets the TCP receive window (default 65535).
    pub fn window(mut self, w: u16) -> Self {
        self.window = w;
        self
    }

    /// Sets the IPv4 identification field.
    pub fn ip_id(mut self, id: u16) -> Self {
        self.ip_id = id;
        self
    }

    /// Sets the IPv4 TTL (default 64).
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Finishes the record.
    pub fn build(self) -> PacketRecord {
        PacketRecord {
            timestamp: self.timestamp,
            tuple: FiveTuple::new(
                self.src_ip,
                self.src_port,
                self.dst_ip,
                self.dst_port,
                self.protocol,
            ),
            flags: self.flags,
            payload_len: self.payload_len,
            seq: self.seq,
            ack: self.ack,
            window: self.window,
            ip_id: self.ip_id,
            ttl: self.ttl,
        }
    }
}

impl Default for PacketBuilder {
    fn default() -> Self {
        PacketBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let p = PacketRecord::builder().build();
        assert_eq!(p.timestamp(), Timestamp::ZERO);
        assert_eq!(p.payload_len(), 0);
        assert!(!p.has_payload());
        assert_eq!(p.ttl(), 64);
        assert_eq!(p.window(), 65_535);
        assert!(p.tuple().protocol.is_tcp());
        assert_eq!(p.ip_total_len(), HEADER_BYTES);
    }

    #[test]
    fn builder_sets_all_fields() {
        let p = PacketRecord::builder()
            .timestamp(Timestamp::from_micros(7))
            .src(Ipv4Addr::new(1, 1, 1, 1), 1024)
            .dst(Ipv4Addr::new(2, 2, 2, 2), 80)
            .flags(TcpFlags::SYN)
            .payload_len(100)
            .seq(11)
            .ack(22)
            .window(33)
            .ip_id(44)
            .ttl(55)
            .build();
        assert_eq!(p.timestamp().as_micros(), 7);
        assert_eq!(p.src_ip(), Ipv4Addr::new(1, 1, 1, 1));
        assert_eq!(p.dst_ip(), Ipv4Addr::new(2, 2, 2, 2));
        assert_eq!(p.tuple().src_port, 1024);
        assert_eq!(p.tuple().dst_port, 80);
        assert!(p.flags().is_syn_only());
        assert_eq!(p.payload_len(), 100);
        assert_eq!(p.ip_total_len(), 140);
        assert_eq!(
            (p.seq(), p.ack(), p.window(), p.ip_id(), p.ttl()),
            (11, 22, 33, 44, 55)
        );
    }

    #[test]
    fn tuple_builder_matches_endpoint_builder() {
        let t = FiveTuple::tcp(
            Ipv4Addr::new(3, 3, 3, 3),
            999,
            Ipv4Addr::new(4, 4, 4, 4),
            80,
        );
        let a = PacketRecord::builder().tuple(t).build();
        let b = PacketRecord::builder()
            .src(Ipv4Addr::new(3, 3, 3, 3), 999)
            .dst(Ipv4Addr::new(4, 4, 4, 4), 80)
            .build();
        assert_eq!(a, b);
    }

    #[test]
    fn with_tuple_replaces_only_the_tuple() {
        let p = PacketRecord::builder().build();
        let t = FiveTuple::tcp(Ipv4Addr::new(8, 8, 8, 8), 1, Ipv4Addr::new(9, 9, 9, 9), 2);
        let q = p.with_tuple(t);
        assert_eq!(q.tuple(), t);
        assert_eq!(q.timestamp(), p.timestamp());
        // original untouched (Copy semantics)
        assert_ne!(p.tuple(), t);
    }

    #[test]
    fn display_contains_flags_and_len() {
        let p = PacketRecord::builder()
            .flags(TcpFlags::SYN)
            .payload_len(9)
            .build();
        let s = p.to_string();
        assert!(s.contains("SYN"));
        assert!(s.contains("len=9"));
    }
}
