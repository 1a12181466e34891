//! Classic **pcap** (libpcap 2.4) trace format support.
//!
//! The paper works on TSH header traces, but every practical trace
//! pipeline speaks pcap, so the library reads and writes it too: each
//! packet becomes an Ethernet + IPv4 + TCP header frame (54 captured
//! bytes — headers only, like a `tcpdump -s 54` capture), with the
//! original on-wire length preserved in `orig_len`.
//!
//! Both byte orders are accepted on read (magic detection); files are
//! written little-endian with microsecond timestamps.

use crate::error::TraceError;
use crate::flags::TcpFlags;
use crate::packet::{wire_timestamp, PacketRecord, WIRE_HEADER_BYTES};
use crate::time::Timestamp;
use crate::trace::Trace;
use crate::tuple::Protocol;
use std::io::{Read, Write};
use std::net::Ipv4Addr;

/// Little-endian microsecond magic.
pub const MAGIC_LE: u32 = 0xA1B2_C3D4;
/// Byte-swapped magic (big-endian writer).
pub const MAGIC_BE: u32 = 0xD4C3_B2A1;
/// Nanosecond-timestamp magic (`tcpdump --nano`), little-endian. Not a
/// supported input — recognized only so format sniffers can route the
/// file to the pcap reader's clear "bad pcap magic" error instead of
/// misparsing it as TSH records.
pub const MAGIC_NS_LE: u32 = 0xA1B2_3C4D;
/// Byte-swapped nanosecond magic. See [`MAGIC_NS_LE`].
pub const MAGIC_NS_BE: u32 = 0x4D3C_B2A1;
/// Link type: Ethernet.
pub const LINKTYPE_ETHERNET: u32 = 1;
/// Captured bytes per packet: Ethernet (14) + IPv4 (20) + TCP (20).
pub const SNAP_BYTES: u32 = 54;
/// Largest per-record capture length the reader accepts. Real snaplens
/// top out at 64 KiB; anything bigger means a desynced or hostile
/// stream, and bounding it keeps a corrupt length field from turning
/// into a multi-gigabyte allocation.
pub const MAX_CAPTURE_BYTES: usize = 1 << 18;

/// Bytes of the pcap global header.
const GLOBAL_HEADER_BYTES: usize = 24;
/// Bytes one packet occupies on disk: the 16-byte record header plus the
/// captured frame.
const RECORD_BYTES: usize = 16 + SNAP_BYTES as usize;

/// Streaming pcap writer: [`PcapWriter::new`] writes the global header
/// once, then [`PcapWriter::write_packet`] encodes one record straight
/// into any [`Write`], so a capture of any length is written without
/// ever being held whole.
#[derive(Debug)]
pub struct PcapWriter<W> {
    inner: W,
    written: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Wraps a byte sink and writes the little-endian, microsecond
    /// global header. Unbuffered — hand it a
    /// [`BufWriter`](std::io::BufWriter) when `inner` is a file or socket.
    ///
    /// # Errors
    ///
    /// I/O failures writing the header.
    pub fn new(mut inner: W) -> Result<PcapWriter<W>, TraceError> {
        let mut global = [0u8; GLOBAL_HEADER_BYTES];
        global[0..4].copy_from_slice(&MAGIC_LE.to_le_bytes());
        global[4..6].copy_from_slice(&2u16.to_le_bytes()); // version major
        global[6..8].copy_from_slice(&4u16.to_le_bytes()); // version minor
                                                           // (thiszone and sigfigs stay zero)
        global[16..20].copy_from_slice(&SNAP_BYTES.to_le_bytes()); // snaplen
        global[20..24].copy_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        inner.write_all(&global)?;
        Ok(PcapWriter {
            inner,
            written: GLOBAL_HEADER_BYTES as u64,
        })
    }

    /// Appends one record: the 16-byte record header and the 54-byte
    /// Ethernet + IPv4 + TCP frame.
    ///
    /// # Errors
    ///
    /// I/O failures, and [`TraceError::FieldOutOfRange`] for a timestamp
    /// past the format's 32-bit seconds.
    #[inline]
    pub fn write_packet(&mut self, p: &PacketRecord) -> Result<(), TraceError> {
        let (secs, micros) = wire_timestamp(p.timestamp())?;
        let mut rec = [0u8; RECORD_BYTES];
        rec[0..4].copy_from_slice(&secs.to_le_bytes());
        rec[4..8].copy_from_slice(&micros.to_le_bytes());
        rec[8..12].copy_from_slice(&SNAP_BYTES.to_le_bytes()); // incl_len
        rec[12..16].copy_from_slice(&(14 + p.ip_total_len()).to_le_bytes()); // orig_len
        let frame = &mut rec[16..];
        // Ethernet: synthetic locally-administered MACs, EtherType IPv4.
        frame[0..6].copy_from_slice(&[0x02, 0, 0, 0, 0, 0x02]);
        frame[6..12].copy_from_slice(&[0x02, 0, 0, 0, 0, 0x01]);
        frame[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
        // IPv4 header and the TCP header's first 16 bytes; its checksum
        // and urgent pointer (the frame's last 4 bytes) stay zero.
        let headers: &mut [u8; WIRE_HEADER_BYTES] = (&mut frame[14..14 + WIRE_HEADER_BYTES])
            .try_into()
            .expect("the slice is WIRE_HEADER_BYTES long");
        p.write_wire_headers(headers);
        self.inner.write_all(&rec)?;
        self.written += RECORD_BYTES as u64;
        Ok(())
    }

    /// Bytes written so far, global header included.
    pub fn bytes_written(&self) -> u64 {
        self.written
    }

    /// Unwraps the writer, returning the underlying sink (unflushed).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

/// Writes a trace as a pcap file. Returns bytes written.
///
/// # Errors
///
/// Propagates I/O failures and timestamp-range errors (pcap stores
/// 32-bit seconds).
pub fn write_trace<W: Write>(w: W, trace: &Trace) -> Result<u64, TraceError> {
    let mut w = PcapWriter::new(w)?;
    for p in trace {
        w.write_packet(p)?;
    }
    Ok(w.bytes_written())
}

/// Serializes a trace to an in-memory pcap image.
pub fn to_bytes(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::with_capacity(GLOBAL_HEADER_BYTES + trace.len() * RECORD_BYTES);
    write_trace(&mut out, trace).expect("in-memory pcap write cannot fail");
    out
}

/// Incremental pcap reader: an iterator of
/// `Result<PacketRecord, TraceError>` that parses one capture record at a
/// time. Non-IPv4 / non-Ethernet frames and under-snap captures are
/// skipped silently, like [`read_trace`]; the first hard error (truncated
/// record, bad timestamp, I/O failure) is yielded once and fuses the
/// iterator.
#[derive(Debug)]
pub struct PcapReader<R> {
    inner: R,
    big_endian: bool,
    done: bool,
}

impl<R: Read> PcapReader<R> {
    /// Reads and validates the 24-byte global header, leaving the stream
    /// positioned at the first record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidTrace`] for a bad magic or link type
    /// and [`TraceError::TruncatedRecord`] for a short global header.
    pub fn new(mut inner: R) -> Result<PcapReader<R>, TraceError> {
        let mut global = [0u8; 24];
        read_exact_or(&mut inner, &mut global, 24)?;
        let magic = u32::from_le_bytes([global[0], global[1], global[2], global[3]]);
        let big_endian = match magic {
            MAGIC_LE => false,
            MAGIC_BE => true,
            _ => {
                return Err(TraceError::InvalidTrace(format!(
                    "bad pcap magic {magic:#010x}"
                )))
            }
        };
        let raw = [global[20], global[21], global[22], global[23]];
        let linktype = if big_endian {
            u32::from_be_bytes(raw)
        } else {
            u32::from_le_bytes(raw)
        };
        if linktype != LINKTYPE_ETHERNET {
            return Err(TraceError::InvalidTrace(format!(
                "unsupported linktype {linktype}"
            )));
        }
        Ok(PcapReader {
            inner,
            big_endian,
            done: false,
        })
    }

    /// Unwraps the reader, returning the underlying stream.
    pub fn into_inner(self) -> R {
        self.inner
    }

    fn u32at(&self, b: &[u8], off: usize) -> u32 {
        let raw = [b[off], b[off + 1], b[off + 2], b[off + 3]];
        if self.big_endian {
            u32::from_be_bytes(raw)
        } else {
            u32::from_le_bytes(raw)
        }
    }

    /// Parses records until one decodes to a packet, is skipped into the
    /// next iteration, errors, or EOF.
    fn read_packet(&mut self) -> Option<Result<PacketRecord, TraceError>> {
        let mut rec = [0u8; 16];
        loop {
            match read_record_header(&mut self.inner, &mut rec) {
                Ok(false) => return None,
                Ok(true) => {}
                Err(e) => return Some(Err(e)),
            }
            let secs = self.u32at(&rec, 0);
            let micros = self.u32at(&rec, 4);
            let incl = self.u32at(&rec, 8) as usize;
            let orig = self.u32at(&rec, 12);
            if incl > MAX_CAPTURE_BYTES {
                return Some(Err(TraceError::InvalidTrace(format!(
                    "capture length {incl} exceeds the {MAX_CAPTURE_BYTES} B limit"
                ))));
            }
            let mut body = vec![0u8; incl];
            if let Err(e) = read_exact_or(&mut self.inner, &mut body, incl) {
                return Some(Err(e));
            }
            if incl < SNAP_BYTES as usize {
                continue; // too short to hold our headers
            }
            if u16::from_be_bytes([body[12], body[13]]) != 0x0800 {
                continue; // not IPv4
            }
            let ip = &body[14..34];
            if ip[0] >> 4 != 4 {
                continue;
            }
            let ts = match Timestamp::from_secs_micros(secs, micros) {
                Ok(ts) => ts,
                Err(e) => return Some(Err(e)),
            };
            let tcp = &body[34..54];
            let total_len = u16::from_be_bytes([ip[2], ip[3]]) as u32;
            let payload = total_len
                .max(orig.saturating_sub(14))
                .saturating_sub(crate::packet::HEADER_BYTES) as u16;
            return Some(Ok(PacketRecord::builder()
                .timestamp(ts)
                .src(
                    Ipv4Addr::new(ip[12], ip[13], ip[14], ip[15]),
                    u16::from_be_bytes([tcp[0], tcp[1]]),
                )
                .dst(
                    Ipv4Addr::new(ip[16], ip[17], ip[18], ip[19]),
                    u16::from_be_bytes([tcp[2], tcp[3]]),
                )
                .protocol(Protocol::new(ip[9]))
                .flags(TcpFlags::from_bits(tcp[13]))
                .payload_len(payload)
                .seq(u32::from_be_bytes([tcp[4], tcp[5], tcp[6], tcp[7]]))
                .ack(u32::from_be_bytes([tcp[8], tcp[9], tcp[10], tcp[11]]))
                .window(u16::from_be_bytes([tcp[14], tcp[15]]))
                .ip_id(u16::from_be_bytes([ip[4], ip[5]]))
                .ttl(ip[8])
                .build()));
        }
    }
}

impl<R: Read> Iterator for PcapReader<R> {
    type Item = Result<PacketRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let item = self.read_packet();
        match &item {
            None | Some(Err(_)) => self.done = true,
            Some(Ok(_)) => {}
        }
        item
    }
}

/// Reads a pcap file into a trace. Non-IPv4 or non-Ethernet frames and
/// truncated captures (< 54 bytes) are skipped, like a tolerant analyzer.
///
/// # Errors
///
/// Returns [`TraceError`] for malformed global/record headers.
pub fn read_trace<R: Read>(r: R) -> Result<Trace, TraceError> {
    let mut trace = Trace::new();
    for pkt in PcapReader::new(r)? {
        trace.push(pkt?);
    }
    Ok(trace)
}

/// Reads a 16-byte record header; `Ok(false)` at clean EOF.
fn read_record_header<R: Read>(r: &mut R, buf: &mut [u8; 16]) -> Result<bool, TraceError> {
    let mut filled = 0;
    while filled < 16 {
        let n = r.read(&mut buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(false);
            }
            return Err(TraceError::TruncatedRecord {
                got: filled,
                need: 16,
            });
        }
        filled += n;
    }
    Ok(true)
}

fn read_exact_or<R: Read>(r: &mut R, buf: &mut [u8], need: usize) -> Result<(), TraceError> {
    let mut filled = 0;
    while filled < need {
        let n = r.read(&mut buf[filled..])?;
        if n == 0 {
            return Err(TraceError::TruncatedRecord { got: filled, need });
        }
        filled += n;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsh::ipv4_checksum as checksum;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        for i in 0..50u64 {
            t.push(
                PacketRecord::builder()
                    .timestamp(Timestamp::from_micros(i * 1000 + 5))
                    .src(
                        Ipv4Addr::new(10, 0, 0, (i % 250 + 1) as u8),
                        1024 + i as u16,
                    )
                    .dst(Ipv4Addr::new(192, 0, 2, 80), 80)
                    .flags(if i % 9 == 0 {
                        TcpFlags::SYN
                    } else {
                        TcpFlags::PSH | TcpFlags::ACK
                    })
                    .payload_len((i * 31 % 1400) as u16)
                    .seq(i as u32 * 1000)
                    .ack(77)
                    .window(4096)
                    .ip_id(i as u16)
                    .ttl(61)
                    .build(),
            );
        }
        t
    }

    #[test]
    fn roundtrip_preserves_all_fields() {
        let t = sample_trace();
        let bytes = to_bytes(&t);
        let back = read_trace(&bytes[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn file_layout() {
        let t = sample_trace();
        let bytes = to_bytes(&t);
        assert_eq!(bytes.len(), 24 + t.len() * (16 + 54));
        assert_eq!(
            u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]),
            MAGIC_LE
        );
        // snaplen and linktype in the global header
        assert_eq!(
            u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]),
            54
        );
        assert_eq!(
            u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]]),
            1
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_trace(&[0u8; 24][..]).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn truncated_global_header_rejected() {
        let err = read_trace(&[0u8; 10][..]).unwrap_err();
        assert!(matches!(err, TraceError::TruncatedRecord { .. }));
    }

    #[test]
    fn truncated_body_rejected() {
        let t = sample_trace();
        let bytes = to_bytes(&t);
        let err = read_trace(&bytes[..bytes.len() - 10]).unwrap_err();
        assert!(matches!(err, TraceError::TruncatedRecord { .. }));
    }

    #[test]
    fn non_ipv4_frames_are_skipped() {
        let t = sample_trace();
        let mut bytes = to_bytes(&t);
        // Corrupt the EtherType of the first frame (offset 24+16+12).
        bytes[24 + 16 + 12] = 0x08;
        bytes[24 + 16 + 13] = 0x06; // ARP
        let back = read_trace(&bytes[..]).unwrap();
        assert_eq!(back.len(), t.len() - 1);
    }

    #[test]
    fn empty_trace_is_header_only() {
        let bytes = to_bytes(&Trace::new());
        assert_eq!(bytes.len(), 24);
        let back = read_trace(&bytes[..]).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn ip_checksum_is_valid() {
        let t = sample_trace();
        let bytes = to_bytes(&t);
        let ip = &bytes[24 + 16 + 14..24 + 16 + 34];
        let stored = u16::from_be_bytes([ip[10], ip[11]]);
        assert_eq!(checksum(ip), stored);
    }
}
