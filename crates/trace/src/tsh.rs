//! NLANR **TSH** (Time Sequence Header) record codec.
//!
//! TSH is the 44-byte fixed-record capture format used by the traces the
//! paper measures ("The measures were taken from a TSH header trace file",
//! §5). Each record is:
//!
//! ```text
//! offset  size  field
//!      0     4  timestamp, whole seconds      (big endian)
//!      4     1  interface number
//!      5     3  timestamp, microseconds       (24-bit big endian)
//!      8    20  IPv4 header (no options)
//!     28    16  first 16 bytes of TCP header  (ports, seq, ack, off/flags, window)
//! ```
//!
//! Figure 1 plots *file sizes* of TSH traces, so byte-exact record sizes
//! matter; this module writes exactly 44 bytes per packet.

use crate::error::TraceError;
use crate::flags::TcpFlags;
use crate::packet::{wire_timestamp, PacketRecord, WIRE_HEADER_BYTES};
use crate::reader::fill;
use crate::time::Timestamp;
use crate::trace::Trace;
use crate::tuple::Protocol;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::Ipv4Addr;

/// Size of one TSH record on disk.
pub const RECORD_BYTES: usize = 44;

/// Encodes one packet into the 44-byte TSH wire representation.
///
/// The IPv4 header checksum is computed so decoders that verify it accept
/// the record.
///
/// # Errors
///
/// Returns [`TraceError::FieldOutOfRange`] when the timestamp does not fit
/// the 32-bit-seconds TSH encoding.
pub fn encode_record(p: &PacketRecord, interface: u8) -> Result<[u8; RECORD_BYTES], TraceError> {
    let mut rec = [0u8; RECORD_BYTES];
    encode_into(p, interface, &mut rec)?;
    Ok(rec)
}

/// [`encode_record`] into a caller-provided buffer, every byte of which
/// is overwritten.
#[inline]
fn encode_into(
    p: &PacketRecord,
    interface: u8,
    rec: &mut [u8; RECORD_BYTES],
) -> Result<(), TraceError> {
    let (secs, micros) = wire_timestamp(p.timestamp())?;
    // Seconds, then the interface byte on top of the 24-bit microseconds
    // (`micros < 10⁶ < 2²⁴`, so its top byte is free).
    rec[0..4].copy_from_slice(&secs.to_be_bytes());
    rec[4..8].copy_from_slice(&((interface as u32) << 24 | micros).to_be_bytes());
    let headers: &mut [u8; WIRE_HEADER_BYTES] = (&mut rec[8..])
        .try_into()
        .expect("a TSH record is 8 timestamp bytes plus the wire headers");
    p.write_wire_headers(headers);
    Ok(())
}

/// Decodes one 44-byte TSH record into a packet and its interface number.
///
/// # Errors
///
/// Returns [`TraceError::TruncatedRecord`] for short input and
/// [`TraceError::FieldOutOfRange`] for an unnormalized microsecond field.
pub fn decode_record(rec: &[u8]) -> Result<(PacketRecord, u8), TraceError> {
    match rec.first_chunk::<RECORD_BYTES>() {
        Some(rec) => decode(rec),
        None => Err(TraceError::TruncatedRecord {
            got: rec.len(),
            need: RECORD_BYTES,
        }),
    }
}

/// [`decode_record`] on a whole record, so every field offset is in
/// bounds by type.
#[inline]
fn decode(rec: &[u8; RECORD_BYTES]) -> Result<(PacketRecord, u8), TraceError> {
    let secs = u32::from_be_bytes([rec[0], rec[1], rec[2], rec[3]]);
    let interface = rec[4];
    let micros = u32::from_be_bytes([0, rec[5], rec[6], rec[7]]);
    let ts = Timestamp::from_secs_micros(secs, micros)?;

    let ip = &rec[8..28];
    let total_len = u16::from_be_bytes([ip[2], ip[3]]) as u32;
    let ip_id = u16::from_be_bytes([ip[4], ip[5]]);
    let ttl = ip[8];
    let protocol = Protocol::new(ip[9]);
    let src_ip = Ipv4Addr::new(ip[12], ip[13], ip[14], ip[15]);
    let dst_ip = Ipv4Addr::new(ip[16], ip[17], ip[18], ip[19]);

    let tcp = &rec[28..44];
    let src_port = u16::from_be_bytes([tcp[0], tcp[1]]);
    let dst_port = u16::from_be_bytes([tcp[2], tcp[3]]);
    let seq = u32::from_be_bytes([tcp[4], tcp[5], tcp[6], tcp[7]]);
    let ack = u32::from_be_bytes([tcp[8], tcp[9], tcp[10], tcp[11]]);
    let flags = TcpFlags::from_bits(tcp[13]);
    let window = u16::from_be_bytes([tcp[14], tcp[15]]);

    let payload_len = total_len.saturating_sub(crate::packet::HEADER_BYTES) as u16;

    let pkt = PacketRecord::builder()
        .timestamp(ts)
        .src(src_ip, src_port)
        .dst(dst_ip, dst_port)
        .protocol(protocol)
        .flags(flags)
        .payload_len(payload_len)
        .seq(seq)
        .ack(ack)
        .window(window)
        .ip_id(ip_id)
        .ttl(ttl)
        .build();
    Ok((pkt, interface))
}

/// Streaming TSH record writer: [`TshWriter::write_packet`] encodes one
/// record straight into any [`Write`], so a capture of any length is
/// written without ever being held whole. (TSH has no file header.)
#[derive(Debug)]
pub(crate) struct TshWriter<W> {
    inner: W,
    written: u64,
}

impl<W: Write> TshWriter<W> {
    /// Wraps a byte sink. Unbuffered — hand it a
    /// [`BufWriter`](std::io::BufWriter) when `inner` is a file or socket.
    pub(crate) fn new(inner: W) -> TshWriter<W> {
        TshWriter { inner, written: 0 }
    }

    /// Appends one record (interface 0).
    ///
    /// # Errors
    ///
    /// I/O failures, and [`TraceError::FieldOutOfRange`] for a timestamp
    /// past the format's 32-bit seconds.
    #[inline]
    pub(crate) fn write_packet(&mut self, p: &PacketRecord) -> Result<(), TraceError> {
        let mut rec = [0u8; RECORD_BYTES];
        encode_into(p, 0, &mut rec)?;
        self.inner.write_all(&rec)?;
        self.written += RECORD_BYTES as u64;
        Ok(())
    }

    /// Bytes written so far.
    pub(crate) fn bytes_written(&self) -> u64 {
        self.written
    }

    /// Unwraps the writer, returning the underlying sink (unflushed).
    pub(crate) fn into_inner(self) -> W {
        self.inner
    }
}

/// Writes a whole trace as consecutive TSH records. Returns bytes written
/// (always `44 * trace.len()`).
///
/// Pass `&mut writer` if you need the writer back afterwards.
///
/// # Errors
///
/// Propagates I/O failures and per-record encoding errors.
pub fn write_trace<W: Write>(w: W, trace: &Trace) -> Result<u64, TraceError> {
    let mut w = TshWriter::new(w);
    for p in trace {
        w.write_packet(p)?;
    }
    Ok(w.bytes_written())
}

/// Incremental TSH record reader: an iterator of
/// `Result<PacketRecord, TraceError>` that decodes each 44-byte record
/// in place from the [`BufRead`] buffer, so arbitrarily large traces
/// stream without being slurped into a [`Trace`] and without a copy or
/// an allocation per record.
///
/// The first error (truncated record, unnormalized field, I/O failure)
/// is yielded once and fuses the iterator — subsequent calls return
/// `None` rather than re-reading a stream in an unknown state.
///
/// # Example
///
/// ```
/// use flowzip_trace::tsh::{self, TshReader};
/// use flowzip_trace::prelude::*;
///
/// let mut t = Trace::new();
/// t.push(PacketRecord::builder().timestamp(Timestamp::from_micros(7)).build());
/// let bytes = tsh::to_bytes(&t);
/// let packets: Vec<_> = TshReader::new(&bytes[..]).collect::<Result<_, _>>().unwrap();
/// assert_eq!(packets.len(), 1);
/// ```
#[derive(Debug)]
pub struct TshReader<R> {
    inner: R,
    done: bool,
}

impl<R: BufRead> TshReader<R> {
    /// Wraps a buffered byte stream of consecutive 44-byte TSH records.
    pub fn new(inner: R) -> TshReader<R> {
        TshReader { inner, done: false }
    }

    /// Unwraps the reader, returning the underlying stream.
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// Decodes the next record from the buffer when it holds the whole
    /// record; otherwise takes the copying slow path.
    #[inline]
    fn read_record(&mut self) -> Option<Result<PacketRecord, TraceError>> {
        let buf = match self.inner.fill_buf() {
            Ok(buf) => buf,
            Err(e) => return Some(Err(e.into())),
        };
        let Some(rec) = buf.first_chunk::<RECORD_BYTES>() else {
            return self.read_straddling();
        };
        let item = decode(rec).map(|(pkt, _ifc)| pkt);
        self.inner.consume(RECORD_BYTES);
        Some(item)
    }

    /// A record split across buffer refills (or short reads): copied to
    /// the stack, then decoded.
    #[cold]
    fn read_straddling(&mut self) -> Option<Result<PacketRecord, TraceError>> {
        let mut rec = [0u8; RECORD_BYTES];
        match fill(&mut self.inner, &mut rec) {
            Ok(0) => None, // clean EOF at a boundary
            Ok(RECORD_BYTES) => Some(decode(&rec).map(|(pkt, _ifc)| pkt)),
            Ok(got) => Some(Err(TraceError::TruncatedRecord {
                got,
                need: RECORD_BYTES,
            })),
            Err(e) => Some(Err(e.into())),
        }
    }
}

impl<R: BufRead> Iterator for TshReader<R> {
    type Item = Result<PacketRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let item = self.read_record();
        match &item {
            None | Some(Err(_)) => self.done = true,
            Some(Ok(_)) => {}
        }
        item
    }
}

/// Reads consecutive TSH records until EOF, buffering `r` itself.
///
/// # Errors
///
/// Returns [`TraceError::TruncatedRecord`] if the stream ends inside a
/// record, and propagates I/O failures.
pub fn read_trace<R: Read>(r: R) -> Result<Trace, TraceError> {
    let mut trace = Trace::new();
    for pkt in TshReader::new(BufReader::new(r)) {
        trace.push(pkt?);
    }
    Ok(trace)
}

/// Serializes a trace to an in-memory TSH image — what Figure 1 calls the
/// "Original TSH file".
pub fn to_bytes(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::with_capacity(trace.len() * RECORD_BYTES);
    // Writing to a Vec cannot fail and timestamps were validated on entry.
    write_trace(&mut out, trace).expect("in-memory TSH write cannot fail");
    out
}

/// Size in bytes the trace occupies as a TSH file, without serializing.
pub fn file_size(trace: &Trace) -> u64 {
    trace.len() as u64 * RECORD_BYTES as u64
}

/// Splits a TSH image into `n` record-aligned chunks, the way NLANR
/// traces ship pre-split — for building multi-file workloads (benches,
/// equivalence tests) from one serialized trace. Records distribute
/// `ceil(records / n)` per chunk in order; trailing chunks may be empty
/// when there are fewer records than chunks. Trailing partial-record
/// bytes (a truncated image) are not assigned to any chunk.
pub fn split_record_chunks(bytes: &[u8], n: usize) -> Vec<&[u8]> {
    let n = n.max(1);
    let records = bytes.len() / RECORD_BYTES;
    let per_chunk = records.div_ceil(n).max(1);
    (0..n)
        .map(|i| {
            let start = (i * per_chunk).min(records) * RECORD_BYTES;
            let end = ((i + 1) * per_chunk).min(records) * RECORD_BYTES;
            &bytes[start..end]
        })
        .collect()
}

/// RFC 1071 Internet checksum over an IPv4 header's bytes with its
/// checksum field zeroed (bytes 10–11 ignored) — the byte-wise reference
/// the tests hold the encoder's field-wise sum against.
#[cfg(test)]
pub(crate) fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum = 0u32;
    for (i, chunk) in header.chunks(2).enumerate() {
        if i == 5 {
            continue; // checksum field itself
        }
        let word = ((chunk[0] as u32) << 8) | chunk.get(1).copied().unwrap_or(0) as u32;
        sum += word;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packet() -> PacketRecord {
        PacketRecord::builder()
            .timestamp(Timestamp::from_secs_micros(1234, 567_890).unwrap())
            .src(Ipv4Addr::new(130, 206, 1, 9), 44_321)
            .dst(Ipv4Addr::new(192, 0, 2, 80), 80)
            .flags(TcpFlags::PSH | TcpFlags::ACK)
            .payload_len(512)
            .seq(0xDEAD_BEEF)
            .ack(0x0102_0304)
            .window(8_192)
            .ip_id(777)
            .ttl(57)
            .build()
    }

    #[test]
    fn record_roundtrip_preserves_every_field() {
        let p = sample_packet();
        let rec = encode_record(&p, 3).unwrap();
        let (q, ifc) = decode_record(&rec).unwrap();
        assert_eq!(p, q);
        assert_eq!(ifc, 3);
    }

    #[test]
    fn record_is_exactly_44_bytes() {
        let rec = encode_record(&sample_packet(), 0).unwrap();
        assert_eq!(rec.len(), RECORD_BYTES);
    }

    #[test]
    fn ip_checksum_verifies() {
        let rec = encode_record(&sample_packet(), 0).unwrap();
        // Re-computing over the header with the stored checksum zeroed must
        // reproduce the stored checksum.
        let stored = u16::from_be_bytes([rec[18], rec[19]]);
        assert_eq!(ipv4_checksum(&rec[8..28]), stored);
        assert_ne!(stored, 0);
    }

    #[test]
    fn truncated_record_is_detected() {
        let rec = encode_record(&sample_packet(), 0).unwrap();
        let err = decode_record(&rec[..20]).unwrap_err();
        assert!(matches!(
            err,
            TraceError::TruncatedRecord { got: 20, need: 44 }
        ));
    }

    #[test]
    fn trace_roundtrip_through_bytes() {
        let mut t = Trace::new();
        for i in 0..100u64 {
            t.push(
                PacketRecord::builder()
                    .timestamp(Timestamp::from_micros(i * 10))
                    .src(
                        Ipv4Addr::new(10, 0, (i / 256) as u8, (i % 256) as u8),
                        1024 + i as u16,
                    )
                    .dst(Ipv4Addr::new(192, 168, 0, 1), 80)
                    .flags(if i == 0 { TcpFlags::SYN } else { TcpFlags::ACK })
                    .payload_len((i * 7 % 1400) as u16)
                    .build(),
            );
        }
        let bytes = to_bytes(&t);
        assert_eq!(bytes.len() as u64, file_size(&t));
        let back = read_trace(&bytes[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn read_rejects_trailing_garbage() {
        let t = Trace::from_packets(vec![sample_packet()]);
        let mut bytes = to_bytes(&t);
        bytes.extend_from_slice(&[1, 2, 3]); // partial record
        let err = read_trace(&bytes[..]).unwrap_err();
        assert!(matches!(err, TraceError::TruncatedRecord { got: 3, .. }));
    }

    #[test]
    fn empty_stream_gives_empty_trace() {
        let t = read_trace(&[][..]).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn timestamp_precision_is_exact_microseconds() {
        let p = PacketRecord::builder()
            .timestamp(Timestamp::from_secs_micros(u32::MAX, 999_999).unwrap())
            .build();
        let rec = encode_record(&p, 0).unwrap();
        let (q, _) = decode_record(&rec).unwrap();
        assert_eq!(q.timestamp(), p.timestamp());
    }

    #[test]
    fn split_record_chunks_tiles_the_image() {
        let t = Trace::from_packets((0..10u64).map(|_| sample_packet()).collect());
        let bytes = to_bytes(&t);
        for n in [1usize, 3, 4, 10, 15] {
            let chunks = split_record_chunks(&bytes, n);
            assert_eq!(chunks.len(), n);
            let rejoined: Vec<u8> = chunks.concat();
            assert_eq!(rejoined, bytes, "{n} chunks");
            for c in &chunks {
                assert_eq!(c.len() % RECORD_BYTES, 0, "record-aligned");
            }
        }
        // Zero chunks clamps to one; empty input splits into empties.
        assert_eq!(split_record_chunks(&bytes, 0).concat(), bytes);
        assert!(split_record_chunks(&[], 3).concat().is_empty());
    }

    #[test]
    fn payload_len_saturates_on_tiny_total_len() {
        // A hand-built record with total_len < 40 must not underflow.
        let p = sample_packet();
        let mut rec = encode_record(&p, 0).unwrap();
        rec[10..12].copy_from_slice(&10u16.to_be_bytes()); // total_len = 10
        let (q, _) = decode_record(&rec).unwrap();
        assert_eq!(q.payload_len(), 0);
    }
}
