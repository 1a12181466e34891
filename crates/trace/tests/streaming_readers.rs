//! Malformed-input coverage for the incremental readers: truncated and
//! corrupt TSH/pcap streams must surface a clean [`TraceError`] mid-
//! iteration — never a panic, and never a silently shortened trace.

use flowzip_trace::prelude::*;
use flowzip_trace::{pcap, tsh, PcapReader, TraceError, TshReader};

fn sample_trace(packets: u64) -> Trace {
    let mut t = Trace::new();
    for i in 0..packets {
        t.push(
            PacketRecord::builder()
                .timestamp(Timestamp::from_micros(i * 100))
                .src(
                    Ipv4Addr::new(10, 0, 0, (i % 200 + 1) as u8),
                    2000 + i as u16,
                )
                .dst(Ipv4Addr::new(192, 0, 2, 1), 80)
                .flags(if i % 5 == 0 {
                    TcpFlags::SYN
                } else {
                    TcpFlags::ACK
                })
                .payload_len((i % 1400) as u16)
                .seq(i as u32)
                .window(4096)
                .ip_id(i as u16)
                .ttl(64)
                .build(),
        );
    }
    t
}

/// Reads everything a reader yields, splitting packets from the error.
fn drain<I: Iterator<Item = Result<PacketRecord, TraceError>>>(
    it: I,
) -> (Vec<PacketRecord>, Option<TraceError>) {
    let mut packets = Vec::new();
    for item in it {
        match item {
            Ok(p) => packets.push(p),
            Err(e) => return (packets, Some(e)),
        }
    }
    (packets, None)
}

#[test]
fn tsh_reader_streams_whole_trace() {
    let t = sample_trace(64);
    let bytes = tsh::to_bytes(&t);
    let (packets, err) = drain(TshReader::new(&bytes[..]));
    assert!(err.is_none());
    assert_eq!(Trace::from_packets(packets), t);
}

#[test]
fn tsh_reader_empty_input_yields_nothing() {
    let mut r = TshReader::new(&[][..]);
    assert!(r.next().is_none());
    assert!(r.next().is_none());
}

#[test]
fn tsh_reader_mid_record_eof_is_clean_error() {
    let t = sample_trace(10);
    let bytes = tsh::to_bytes(&t);
    // Cut inside the 8th record.
    let cut = 7 * tsh::RECORD_BYTES + 13;
    let (packets, err) = drain(TshReader::new(&bytes[..cut]));
    assert_eq!(packets.len(), 7, "packets before the cut still decode");
    assert!(
        matches!(err, Some(TraceError::TruncatedRecord { got: 13, need: 44 })),
        "got {err:?}"
    );
}

#[test]
fn tsh_reader_fuses_after_error() {
    let t = sample_trace(3);
    let bytes = tsh::to_bytes(&t);
    let mut r = TshReader::new(&bytes[..tsh::RECORD_BYTES + 1]);
    assert!(r.next().unwrap().is_ok());
    assert!(r.next().unwrap().is_err());
    assert!(r.next().is_none());
    assert!(r.next().is_none());
}

#[test]
fn tsh_reader_rejects_unnormalized_micros_field() {
    let t = sample_trace(2);
    let mut bytes = tsh::to_bytes(&t);
    // The 24-bit microsecond field of record 0 can encode up to
    // 16_777_215; values >= 1_000_000 are not a normalized split.
    bytes[5] = 0xFF;
    bytes[6] = 0xFF;
    bytes[7] = 0xFF;
    let (packets, err) = drain(TshReader::new(&bytes[..]));
    assert!(packets.is_empty());
    assert!(
        matches!(
            err,
            Some(TraceError::FieldOutOfRange {
                field: "micros",
                ..
            })
        ),
        "got {err:?}"
    );
}

#[test]
fn tsh_read_trace_agrees_with_reader() {
    let t = sample_trace(20);
    let bytes = tsh::to_bytes(&t);
    assert_eq!(tsh::read_trace(&bytes[..]).unwrap(), t);
    let err = tsh::read_trace(&bytes[..bytes.len() - 1]).unwrap_err();
    assert!(matches!(err, TraceError::TruncatedRecord { .. }));
}

#[test]
fn pcap_reader_streams_whole_trace() {
    let t = sample_trace(40);
    let bytes = pcap::to_bytes(&t);
    let (packets, err) = drain(PcapReader::new(&bytes[..]).unwrap());
    assert!(err.is_none());
    assert_eq!(Trace::from_packets(packets), t);
}

#[test]
fn pcap_reader_rejects_bad_magic() {
    let err = PcapReader::new(&[0u8; 24][..]).unwrap_err();
    assert!(err.to_string().contains("magic"));
}

#[test]
fn pcap_reader_rejects_short_global_header() {
    let err = PcapReader::new(&[0u8; 7][..]).unwrap_err();
    assert!(matches!(
        err,
        TraceError::TruncatedRecord { got: 7, need: 24 }
    ));
}

#[test]
fn pcap_reader_mid_record_eof_is_clean_error() {
    let t = sample_trace(5);
    let bytes = pcap::to_bytes(&t);
    // Cut inside the third record's frame body.
    let cut = 24 + 2 * (16 + 54) + 16 + 20;
    let (packets, err) = drain(PcapReader::new(&bytes[..cut]).unwrap());
    assert_eq!(packets.len(), 2);
    assert!(matches!(
        err,
        Some(TraceError::TruncatedRecord { got: 20, need: 54 })
    ));
}

#[test]
fn pcap_reader_mid_header_eof_is_clean_error() {
    let t = sample_trace(2);
    let bytes = pcap::to_bytes(&t);
    let cut = 24 + (16 + 54) + 9; // inside the second record header
    let (packets, err) = drain(PcapReader::new(&bytes[..cut]).unwrap());
    assert_eq!(packets.len(), 1);
    assert!(matches!(
        err,
        Some(TraceError::TruncatedRecord { got: 9, need: 16 })
    ));
}

#[test]
fn pcap_reader_skips_foreign_frames_without_erroring() {
    let t = sample_trace(6);
    let mut bytes = pcap::to_bytes(&t);
    // Turn record 2's EtherType into ARP; the reader should skip it and
    // still deliver the rest.
    bytes[24 + 2 * (16 + 54) + 16 + 12] = 0x08;
    bytes[24 + 2 * (16 + 54) + 16 + 13] = 0x06;
    let (packets, err) = drain(PcapReader::new(&bytes[..]).unwrap());
    assert!(err.is_none());
    assert_eq!(packets.len(), 5);
}

#[test]
fn pcap_reader_bounds_corrupt_capture_lengths() {
    // A record header claiming a ~4 GiB capture must produce a clean
    // error, not an allocation attempt of that size.
    let t = sample_trace(2);
    let mut bytes = pcap::to_bytes(&t);
    let incl_off = 24 + 8; // first record header's incl_len field
    bytes[incl_off..incl_off + 4].copy_from_slice(&0xFFFF_FF00u32.to_le_bytes());
    let (packets, err) = drain(PcapReader::new(&bytes[..]).unwrap());
    assert!(packets.is_empty());
    assert!(
        matches!(err, Some(TraceError::InvalidTrace(ref m)) if m.contains("capture length")),
        "got {err:?}"
    );
}

#[test]
fn pcap_reader_fuses_after_error() {
    let t = sample_trace(2);
    let bytes = pcap::to_bytes(&t);
    let mut r = PcapReader::new(&bytes[..24 + 16 + 54 + 3]).unwrap();
    assert!(r.next().unwrap().is_ok());
    assert!(r.next().unwrap().is_err());
    assert!(r.next().is_none());
}

/// A reader that hands out 1, 2, …, 7, 1, 2, … bytes per call however
/// much is asked for, so record boundaries land everywhere.
struct Trickle<'a> {
    bytes: &'a [u8],
    step: usize,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.step = self.step % 7 + 1;
        let n = self.step.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Packets and the first error (its `Debug` form: variant and fields).
type Outcome = (Vec<PacketRecord>, Option<String>);

fn outcome<I: Iterator<Item = Result<PacketRecord, TraceError>>>(it: I) -> Outcome {
    let (packets, err) = drain(it);
    (packets, err.map(|e| format!("{e:?}")))
}

fn pcap_outcome<R: std::io::BufRead>(r: R) -> Outcome {
    match PcapReader::new(r) {
        Ok(reader) => outcome(reader),
        Err(e) => (Vec::new(), Some(format!("{e:?}"))),
    }
}

/// Holds every buffer capacity from 1 to 160 bytes, over a stream of
/// short reads, to the whole-slice parse of `bytes`.
fn sweep_capacities(bytes: &[u8], parse: impl Fn(&mut dyn std::io::BufRead) -> Outcome) {
    let whole = parse(&mut &bytes[..]);
    for capacity in 1..=160 {
        let mut r = std::io::BufReader::with_capacity(capacity, Trickle { bytes, step: 0 });
        assert_eq!(
            parse(&mut r),
            whole,
            "capacity {capacity}, {} input bytes",
            bytes.len()
        );
    }
}

/// A pcap file in either byte order from `(packet, frame, orig_len)`
/// records; the packet supplies the timestamp.
fn pcap_file(big_endian: bool, records: &[(PacketRecord, Vec<u8>, u32)]) -> Vec<u8> {
    let mut out = Vec::new();
    let put32 = |out: &mut Vec<u8>, v: u32| {
        out.extend_from_slice(&if big_endian {
            v.to_be_bytes()
        } else {
            v.to_le_bytes()
        })
    };
    put32(&mut out, pcap::MAGIC_LE);
    put32(&mut out, if big_endian { 0x0002_0004 } else { 0x0004_0002 });
    put32(&mut out, 0); // thiszone
    put32(&mut out, 0); // sigfigs
    put32(&mut out, 65_535); // snaplen
    put32(&mut out, pcap::LINKTYPE_ETHERNET);
    for (p, frame, orig) in records {
        let (secs, micros) = p.timestamp().to_secs_micros();
        put32(&mut out, secs);
        put32(&mut out, micros);
        put32(&mut out, frame.len() as u32);
        put32(&mut out, *orig);
        out.extend_from_slice(frame);
    }
    out
}

#[test]
fn readers_agree_at_every_buffer_boundary() {
    let t = sample_trace(6);
    let p = t.packets();
    let frames = pcap::to_bytes(&t);
    let frame = |i: usize| frames[24 + 70 * i + 16..24 + 70 * (i + 1)].to_vec();
    let orig = |i: usize| 14 + p[i].ip_total_len();

    // Frames past the headers: a 60-byte one with an Ethernet trailer,
    // and one longer than the reader's frame head, whose tail is skipped
    // unread.
    let padded = |i: usize, len: usize| {
        let mut f = frame(i);
        f.resize(len, 0xEE);
        f
    };
    let mut arp = frame(2);
    arp[12..14].copy_from_slice(&[0x08, 0x06]);
    let under_snap = frame(3)[..40].to_vec();
    let records = [
        (p[0], frame(0), orig(0)),
        (p[1], padded(1, 60), orig(1)),
        (p[2], arp, orig(2)),
        (p[3], under_snap, orig(3)),
        (p[4], padded(4, 160), orig(4)),
        (p[5], frame(5), orig(5)),
    ];

    for big_endian in [false, true] {
        let bytes = pcap_file(big_endian, &records);
        let parse = |r: &mut dyn std::io::BufRead| pcap_outcome(r);
        let (packets, err) = parse(&mut &bytes[..]);
        assert_eq!(packets, [p[0], p[1], p[4], p[5]], "big_endian {big_endian}");
        assert!(err.is_none());
        // Every cut: inside the global header, each record header and
        // each frame.
        for cut in 0..=bytes.len() {
            sweep_capacities(&bytes[..cut], parse);
        }
    }

    let bytes = tsh::to_bytes(&t);
    let parse = |r: &mut dyn std::io::BufRead| outcome(TshReader::new(r));
    assert_eq!(parse(&mut &bytes[..]).0, p);
    for cut in 0..=bytes.len() {
        sweep_capacities(&bytes[..cut], parse);
    }
}
