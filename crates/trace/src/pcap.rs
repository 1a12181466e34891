//! Classic **pcap** (libpcap 2.4) trace format support.
//!
//! The paper works on TSH header traces, but every practical trace
//! pipeline speaks pcap, so the library reads and writes it too: each
//! packet becomes an Ethernet + IPv4 + TCP header frame (54 captured
//! bytes — headers only, like a `tcpdump -s 54` capture), with the
//! original on-wire length preserved in `orig_len`.
//!
//! Both byte orders are accepted on read (magic detection); files are
//! written little-endian with microsecond timestamps. The reader honours
//! the IPv4 header length (IHL), so a frame with IP options parses; its
//! packet is written back without them.

use crate::error::TraceError;
use crate::flags::TcpFlags;
use crate::packet::{wire_timestamp, PacketRecord, WIRE_HEADER_BYTES};
use crate::reader::{fill, skip};
use crate::time::Timestamp;
use crate::trace::Trace;
use crate::tuple::Protocol;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::Ipv4Addr;

/// Little-endian microsecond magic.
pub const MAGIC_LE: u32 = 0xA1B2_C3D4;
/// Byte-swapped magic (big-endian writer).
pub(crate) const MAGIC_BE: u32 = 0xD4C3_B2A1;
/// Nanosecond-timestamp magic (`tcpdump --nano`), little-endian. Not a
/// supported input — recognized only so format sniffers can route the
/// file to the pcap reader's clear "bad pcap magic" error instead of
/// misparsing it as TSH records.
pub(crate) const MAGIC_NS_LE: u32 = 0xA1B2_3C4D;
/// Byte-swapped nanosecond magic. See [`MAGIC_NS_LE`].
pub(crate) const MAGIC_NS_BE: u32 = 0x4D3C_B2A1;
/// Link type: Ethernet.
pub const LINKTYPE_ETHERNET: u32 = 1;
/// Captured bytes per packet: Ethernet (14) + IPv4 (20) + TCP (20).
pub(crate) const SNAP_BYTES: u32 = 54;
/// Largest per-record capture length the reader accepts. Real snaplens
/// top out at 64 KiB; anything bigger means a desynced or hostile
/// stream, and bounding it keeps a corrupt length field from silently
/// skipping gigabytes of input as one frame.
pub(crate) const MAX_CAPTURE_BYTES: usize = 1 << 18;

/// Bytes of the pcap global header.
const GLOBAL_HEADER_BYTES: usize = 24;
/// Bytes of a per-record header: seconds, microseconds, captured and
/// original length.
const RECORD_HEADER_BYTES: usize = 16;
/// Bytes one packet occupies on disk: the 16-byte record header plus the
/// captured frame.
const RECORD_BYTES: usize = RECORD_HEADER_BYTES + SNAP_BYTES as usize;
/// The frame bytes the reader can look at: Ethernet (14), the longest
/// IPv4 header (IHL 15, 60 bytes) and a TCP header (20). Anything past
/// them is skipped unread.
const FRAME_HEAD_BYTES: usize = 14 + 60 + 20;

/// Streaming pcap writer: [`PcapWriter::new`] writes the global header
/// once, then [`PcapWriter::write_packet`] encodes one record straight
/// into any [`Write`], so a capture of any length is written without
/// ever being held whole.
#[derive(Debug)]
pub(crate) struct PcapWriter<W> {
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
    pub(crate) fn new(mut inner: W) -> Result<PcapWriter<W>, TraceError> {
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
    pub(crate) fn write_packet(&mut self, p: &PacketRecord) -> Result<(), TraceError> {
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
    pub(crate) fn bytes_written(&self) -> u64 {
        self.written
    }

    /// Unwraps the writer, returning the underlying sink (unflushed).
    pub(crate) fn into_inner(self) -> W {
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
/// time, in place from the [`BufRead`] buffer — no copy and no
/// allocation per record. Non-IPv4 / non-Ethernet frames and frames
/// captured too short to hold their IPv4 and TCP headers are skipped
/// silently, like [`read_trace`]; the first hard error (truncated
/// record, bad timestamp, I/O failure) is yielded once and fuses the
/// iterator.
#[derive(Debug)]
pub struct PcapReader<R> {
    inner: R,
    big_endian: bool,
    done: bool,
}

/// What one capture record holds for the reader.
enum Record {
    /// A TCP/IPv4 frame, decoded.
    Packet(PacketRecord),
    /// A frame the reader passes over.
    Skipped,
}

/// A decoded 16-byte record header.
struct RecordHeader {
    secs: u32,
    micros: u32,
    incl: usize,
    orig: u32,
}

impl RecordHeader {
    /// Decodes the header in the file's byte order and bounds its
    /// capture length.
    #[inline]
    fn decode(h: &[u8; RECORD_HEADER_BYTES], big_endian: bool) -> Result<Self, TraceError> {
        let field = |off: usize| {
            let v = u32::from_le_bytes([h[off], h[off + 1], h[off + 2], h[off + 3]]);
            if big_endian {
                v.swap_bytes()
            } else {
                v
            }
        };
        let incl = field(8) as usize;
        if incl > MAX_CAPTURE_BYTES {
            return Err(TraceError::InvalidTrace(format!(
                "capture length {incl} exceeds the {MAX_CAPTURE_BYTES} B limit"
            )));
        }
        Ok(RecordHeader {
            secs: field(0),
            micros: field(4),
            incl,
            orig: field(12),
        })
    }

    /// The leading frame bytes [`parse_frame`] reads.
    #[inline]
    fn head_len(&self) -> usize {
        self.incl.min(FRAME_HEAD_BYTES)
    }
}

impl<R: BufRead> PcapReader<R> {
    /// Reads and validates the 24-byte global header, leaving the stream
    /// positioned at the first record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidTrace`] for a bad magic or link type
    /// and [`TraceError::TruncatedRecord`] for a short global header.
    pub fn new(mut inner: R) -> Result<PcapReader<R>, TraceError> {
        let mut global = [0u8; GLOBAL_HEADER_BYTES];
        let got = fill(&mut inner, &mut global)?;
        if got < GLOBAL_HEADER_BYTES {
            return Err(TraceError::TruncatedRecord {
                got,
                need: GLOBAL_HEADER_BYTES,
            });
        }
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

    /// Parses records until one decodes to a packet, errors, or EOF.
    #[inline]
    fn read_packet(&mut self) -> Option<Result<PacketRecord, TraceError>> {
        loop {
            match self.read_record() {
                Ok(Some(Record::Packet(p))) => return Some(Ok(p)),
                Ok(Some(Record::Skipped)) => {}
                Ok(None) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
    }

    /// Parses one record straight out of the buffer when it holds the
    /// whole record; otherwise takes the copying slow path. `None` at a
    /// clean EOF.
    #[inline]
    fn read_record(&mut self) -> Result<Option<Record>, TraceError> {
        let big_endian = self.big_endian;
        let buf = self.inner.fill_buf()?;
        let Some(h) = buf.first_chunk::<RECORD_HEADER_BYTES>() else {
            return self.read_straddling();
        };
        let header = RecordHeader::decode(h, big_endian)?;
        let Some(frame) = buf[RECORD_HEADER_BYTES..].get(..header.incl) else {
            return self.read_straddling();
        };
        let record = parse_frame(&header, &frame[..header.head_len()]);
        self.inner.consume(RECORD_HEADER_BYTES + header.incl);
        record.map(Some)
    }

    /// A record split across buffer refills (or short reads): its header
    /// and frame head are copied to the stack, the rest of the frame is
    /// consumed unread.
    #[cold]
    fn read_straddling(&mut self) -> Result<Option<Record>, TraceError> {
        let mut h = [0u8; RECORD_HEADER_BYTES];
        match fill(&mut self.inner, &mut h)? {
            0 => return Ok(None),
            RECORD_HEADER_BYTES => {}
            got => {
                return Err(TraceError::TruncatedRecord {
                    got,
                    need: RECORD_HEADER_BYTES,
                })
            }
        }
        let header = RecordHeader::decode(&h, self.big_endian)?;
        let mut head = [0u8; FRAME_HEAD_BYTES];
        let head = &mut head[..header.head_len()];
        let mut got = fill(&mut self.inner, head)?;
        if got == head.len() {
            got += skip(&mut self.inner, header.incl - got)?;
        }
        if got < header.incl {
            return Err(TraceError::TruncatedRecord {
                got,
                need: header.incl,
            });
        }
        parse_frame(&header, head).map(Some)
    }
}

/// Decodes one captured frame, `frame` being its first
/// [`RecordHeader::head_len`] bytes. Frames that are not IPv4 on
/// Ethernet, or whose capture ends inside the IPv4 or TCP header, are
/// [`Record::Skipped`]; the TCP header is found through the IHL field.
#[inline]
fn parse_frame(header: &RecordHeader, frame: &[u8]) -> Result<Record, TraceError> {
    // Ethernet and the fixed IPv4 header; SNAP_BYTES also covers the
    // TCP header when there are no IP options.
    let Some(eth_ip) = frame.first_chunk::<{ SNAP_BYTES as usize }>() else {
        return Ok(Record::Skipped);
    };
    if u16::from_be_bytes([eth_ip[12], eth_ip[13]]) != 0x0800 {
        return Ok(Record::Skipped); // not IPv4
    }
    let ip: &[u8; 20] = eth_ip[14..34]
        .try_into()
        .expect("a 54-byte head holds the fixed IPv4 header");
    if ip[0] >> 4 != 4 {
        return Ok(Record::Skipped);
    }
    let ip_header = usize::from(ip[0] & 0x0f) * 4;
    if ip_header < 20 {
        return Ok(Record::Skipped); // IHL < 5: no valid IPv4 header
    }
    let Some(tcp) = frame
        .get(14 + ip_header..)
        .and_then(|tcp| tcp.first_chunk::<20>())
    else {
        return Ok(Record::Skipped); // capture ends inside the TCP header
    };
    let ts = Timestamp::from_secs_micros(header.secs, header.micros)?;
    let total_len = u16::from_be_bytes([ip[2], ip[3]]) as u32;
    // Saturates at u16::MAX: segmentation-offload captures report
    // on-wire lengths past what an IPv4 total length can hold.
    let payload = total_len
        .max(header.orig.saturating_sub(14))
        .saturating_sub(ip_header as u32 + 20)
        .min(u16::MAX as u32) as u16;
    Ok(Record::Packet(
        PacketRecord::builder()
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
            .build(),
    ))
}

impl<R: BufRead> Iterator for PcapReader<R> {
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

/// Reads a pcap file into a trace, buffering `r` itself. Non-IPv4 or
/// non-Ethernet frames and captures too short for their headers are
/// skipped, like a tolerant analyzer.
///
/// # Errors
///
/// Returns [`TraceError`] for malformed global/record headers.
pub fn read_trace<R: Read>(r: R) -> Result<Trace, TraceError> {
    let mut trace = Trace::new();
    for pkt in PcapReader::new(BufReader::new(r))? {
        trace.push(pkt?);
    }
    Ok(trace)
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

    /// A one-record image of `p` whose frame `edit` rewrites; the record
    /// header's `incl_len` follows the edited frame and `orig_len` is
    /// set as given.
    fn one_record(p: PacketRecord, orig: u32, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let img = to_bytes(&Trace::from_packets(vec![p]));
        let mut frame = img[24 + 16..].to_vec();
        edit(&mut frame);
        let mut out = img[..24 + 8].to_vec();
        out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        out.extend_from_slice(&orig.to_le_bytes());
        out.extend_from_slice(&frame);
        out
    }

    /// Inserts `words` 32-bit words of IP options and sets IHL and the
    /// IP total length to match.
    fn add_ip_options(frame: &mut Vec<u8>, words: u8) {
        let options = vec![0x01; 4 * words as usize]; // NOP options
        frame.splice(34..34, options);
        frame[14] = 0x45 + words;
        let total = u16::from_be_bytes([frame[16], frame[17]]) + 4 * words as u16;
        frame[16..18].copy_from_slice(&total.to_be_bytes());
    }

    #[test]
    fn payload_len_saturates_on_oversized_orig_len() {
        // Segmentation-offload captures report on-wire lengths past what
        // 16 bits hold; the payload clamps instead of wrapping.
        let p = sample_trace().packets()[3];
        for orig in [65_590u32, 70_000] {
            let img = one_record(p, orig, |_| {});
            let back = read_trace(&img[..]).unwrap();
            assert_eq!(back.packets()[0].payload_len(), u16::MAX, "orig_len {orig}");
        }
        // Just below the wrap point the length is exact.
        let img = one_record(p, 65_589, |_| {});
        assert_eq!(
            read_trace(&img[..]).unwrap().packets()[0].payload_len(),
            65_535
        );
        let img = one_record(p, 14 + 40 + 100, |_| {});
        let back = read_trace(&img[..]).unwrap().packets()[0];
        assert_eq!(back.payload_len(), p.payload_len().max(100));
    }

    #[test]
    fn ip_options_move_the_tcp_header() {
        let p = sample_trace().packets()[7];
        let orig = 14 + p.ip_total_len() + 4;
        let img = one_record(p, orig, |f| add_ip_options(f, 1));
        assert_eq!(img.len(), 24 + 16 + 58);
        let back = read_trace(&img[..]).unwrap();
        assert_eq!(back.packets(), &[p], "IHL 6, captured whole");

        // Cut at 54 B the TCP header is incomplete: skipped, like an
        // under-snap capture.
        let img = one_record(p, orig, |f| {
            add_ip_options(f, 1);
            f.truncate(54);
        });
        assert!(
            read_trace(&img[..]).unwrap().is_empty(),
            "IHL 6, cut at 54 B"
        );

        // IHL 4 cannot hold an IPv4 header: skipped.
        let img = one_record(p, 14 + p.ip_total_len(), |f| f[14] = 0x44);
        assert!(read_trace(&img[..]).unwrap().is_empty(), "IHL 4");

        // The longest header (IHL 15) still fits the reader's frame head.
        let img = one_record(p, 14 + p.ip_total_len() + 40, |f| add_ip_options(f, 10));
        assert_eq!(read_trace(&img[..]).unwrap().packets(), &[p], "IHL 15");
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
