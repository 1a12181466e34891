//! The four output datasets of §3 and their binary encoding.
//!
//! * `short-flows-template` — for each cluster center: `n`, then the `n`
//!   `M` values;
//! * `long-flows-template` — for each long flow: `n`, then `n`
//!   `(M, inter-packet time)` pairs;
//! * `address` — the unique destination IPs, index-addressed;
//! * `time-seq` — per flow, sorted by first-packet timestamp: dataset id
//!   (S/L), template index, address index, timestamp, and (short flows
//!   only) the flow RTT.
//!
//! The binary layout uses LEB128 varints and delta-coded timestamps so a
//! short-flow record costs ≈8 bytes, matching §5's sizing argument. RTTs
//! are quantized to 128 µs units — the decompressor only needs the RTT's
//! magnitude, and the format is lossy by design.

use crate::container::{put_encoded_long_template, put_short_templates, put_time_seq_record};
use flowzip_trace::{Duration, Timestamp};
use std::fmt;
use std::net::Ipv4Addr;

/// Container magic: "FZC1".
pub const MAGIC: [u8; 4] = *b"FZC1";
/// Format version.
pub(crate) const VERSION: u8 = 1;
/// RTT quantization shift (128 µs units).
pub(crate) const RTT_SHIFT: u32 = 7;

/// One long flow stored verbatim: `(M, inter-packet gap)` per packet.
///
/// The entries stay in the `long-flows-template` wire encoding — per
/// packet `varint M` then `varint gap_µs`, ≈ 3 B — from the accumulator
/// to the archive and back: parsing copies a template's validated bytes
/// and the decompressor's merge decodes each entry as it emits it. The
/// bytes are always minimally encoded (a parse re-encodes a template
/// whose varints are not), so equality is equality of the entries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LongTemplate {
    /// Entries in `bytes`.
    len: usize,
    /// The entries, encoded.
    bytes: Box<[u8]>,
}

impl LongTemplate {
    /// A template of `entries`: `(M value, gap before this packet)`, the
    /// first gap zero by convention.
    pub fn from_entries(entries: impl IntoIterator<Item = (u16, Duration)>) -> LongTemplate {
        let mut bytes = Vec::new();
        let mut len = 0;
        for (m, gap) in entries {
            crate::container::put_long_entry(m, gap.as_micros(), &mut bytes);
            len += 1;
        }
        LongTemplate::from_encoded(len, bytes.into())
    }

    /// A template of `len` entries already encoded minimally in `bytes`.
    pub(crate) fn from_encoded(len: usize, bytes: Box<[u8]>) -> LongTemplate {
        LongTemplate { len, bytes }
    }

    /// Packets the template expands to.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for a template without packets.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `(M, gap before this packet)` pairs, decoded one at a time.
    pub fn entries(&self) -> impl Iterator<Item = (u16, Duration)> + '_ {
        self.cursor()
    }

    /// [`LongTemplate::entries`] as the named iterator the merge keeps
    /// in each open flow's cursor.
    pub(crate) fn cursor(&self) -> crate::decode::LongEntries<'_> {
        crate::decode::LongEntries::new(&self.bytes)
    }

    /// The encoded entries, without the length prefix the container
    /// writes ahead of them.
    pub(crate) fn encoded(&self) -> &[u8] {
        &self.bytes
    }
}

/// One `time-seq` record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRecord {
    /// First-packet timestamp.
    pub first_ts: Timestamp,
    /// `true` → index into `long-flows-template`, else into
    /// `short-flows-template` (the paper's S/L dataset identifier).
    pub is_long: bool,
    /// Template index in the respective dataset.
    pub template_idx: u32,
    /// Index into the address dataset.
    pub addr_idx: u32,
    /// Flow RTT (quantized on serialization; meaningful for short flows
    /// only — long flows carry their timing in the template).
    pub rtt: Duration,
}

/// The assembled compressed trace: all four datasets.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompressedTrace {
    /// Cluster-center vectors.
    pub short_templates: Vec<Vec<u16>>,
    /// Verbatim long flows.
    pub long_templates: Vec<LongTemplate>,
    /// Unique destination addresses.
    pub addresses: Vec<Ipv4Addr>,
    /// Per-flow records, sorted by `first_ts`.
    pub time_seq: Vec<FlowRecord>,
}

/// Byte footprint per dataset, as reported next to Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DatasetSizes {
    /// Fixed header bytes (magic, version, counts).
    pub header: u64,
    /// `short-flows-template` bytes.
    pub short_templates: u64,
    /// `long-flows-template` bytes.
    pub long_templates: u64,
    /// `address` bytes.
    pub addresses: u64,
    /// `time-seq` bytes.
    pub time_seq: u64,
    /// v2.1 trailing metadata-block bytes (zero for v1 and plain v2).
    pub metadata: u64,
    /// v2.2 trailing telemetry-block bytes (zero below rev 2.2).
    pub telemetry: u64,
}

impl DatasetSizes {
    /// Total container size.
    pub fn total(&self) -> u64 {
        self.header
            + self.short_templates
            + self.long_templates
            + self.addresses
            + self.time_seq
            + self.metadata
            + self.telemetry
    }
}

impl fmt::Display for DatasetSizes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total {} B (short-tmpl {} B, long-tmpl {} B, addr {} B, time-seq {} B, meta {} B",
            self.total(),
            self.short_templates,
            self.long_templates,
            self.addresses,
            self.time_seq,
            self.metadata
        )?;
        if self.telemetry > 0 {
            write!(f, ", telemetry {} B", self.telemetry)?;
        }
        write!(f, ")")
    }
}

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// Wrong magic or version byte.
    BadHeader,
    /// Input ended inside a structure.
    Truncated,
    /// A record referenced a template or address out of range.
    IndexOutOfRange(&'static str, u64),
    /// `time-seq` violated its sort invariant.
    UnsortedTimeSeq,
    /// A v2 section payload decoded to a different byte length than its
    /// index entry promised.
    SectionLength(usize),
    /// The v2.1 trailing metadata block is structurally invalid.
    Metadata(&'static str),
    /// The v2.2 trailing telemetry block is structurally invalid.
    Telemetry(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadHeader => write!(f, "bad compressed-trace header"),
            CodecError::Truncated => write!(f, "compressed trace truncated"),
            CodecError::IndexOutOfRange(what, idx) => {
                write!(f, "{what} index {idx} out of range")
            }
            CodecError::UnsortedTimeSeq => write!(f, "time-seq dataset not sorted"),
            CodecError::SectionLength(s) => {
                write!(f, "section {s} payload length disagrees with index")
            }
            CodecError::Metadata(why) => write!(f, "bad section metadata block: {why}"),
            CodecError::Telemetry(why) => write!(f, "bad telemetry block: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl CompressedTrace {
    /// Number of flows stored.
    pub fn flow_count(&self) -> usize {
        self.time_seq.len()
    }

    /// Total packets the archive expands to.
    pub fn packet_count(&self) -> u64 {
        self.time_seq.iter().map(|r| self.flow_len(r)).sum()
    }

    /// Packets the stored flow `r` expands to: the length of its short
    /// or long template.
    pub fn flow_len(&self, r: &FlowRecord) -> u64 {
        if r.is_long {
            self.long_templates[r.template_idx as usize].len() as u64
        } else {
            self.short_templates[r.template_idx as usize].len() as u64
        }
    }

    /// Checks referential and ordering invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), CodecError> {
        let mut last = Timestamp::ZERO;
        for r in &self.time_seq {
            if r.is_long {
                if r.template_idx as usize >= self.long_templates.len() {
                    return Err(CodecError::IndexOutOfRange(
                        "long template",
                        r.template_idx as u64,
                    ));
                }
            } else if r.template_idx as usize >= self.short_templates.len() {
                return Err(CodecError::IndexOutOfRange(
                    "short template",
                    r.template_idx as u64,
                ));
            }
            if r.addr_idx as usize >= self.addresses.len() {
                return Err(CodecError::IndexOutOfRange("address", r.addr_idx as u64));
            }
            if r.first_ts < last {
                return Err(CodecError::UnsortedTimeSeq);
            }
            last = r.first_ts;
        }
        Ok(())
    }

    /// Serializes the container.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode().0
    }

    /// Serializes and reports per-dataset byte footprints.
    pub fn encode(&self) -> (Vec<u8>, DatasetSizes) {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        put_varint(self.short_templates.len() as u64, &mut out);
        put_varint(self.long_templates.len() as u64, &mut out);
        put_varint(self.addresses.len() as u64, &mut out);
        put_varint(self.time_seq.len() as u64, &mut out);
        let header = out.len() as u64;

        let mark = out.len();
        put_short_templates(self.short_templates.iter().map(Vec::as_slice), &mut out);
        let short_templates = (out.len() - mark) as u64;

        let mark = out.len();
        for t in &self.long_templates {
            put_encoded_long_template(t.len() as u64, t.encoded(), &mut out);
        }
        let long_templates = (out.len() - mark) as u64;

        let mark = out.len();
        out.extend(self.addresses.iter().flat_map(Ipv4Addr::octets));
        let addresses = (out.len() - mark) as u64;

        let mark = out.len();
        let mut last_ts = 0u64;
        for r in &self.time_seq {
            put_time_seq_record(r, &mut last_ts, &mut out);
        }
        let time_seq = (out.len() - mark) as u64;

        (
            out,
            DatasetSizes {
                header,
                short_templates,
                long_templates,
                addresses,
                time_seq,
                metadata: 0,
                telemetry: 0,
            },
        )
    }

    /// Parses a container produced by [`CompressedTrace::to_bytes`] or
    /// [`CompressedTrace::to_bytes_v2`]: [`read_v2`](crate::read_v2),
    /// the one [`ArchiveReader`](crate::ArchiveReader)'s record merge
    /// collected. It reads both revisions — so v1 archives keep reading
    /// back forever.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] for malformed input; the result additionally
    /// passes [`CompressedTrace::validate`].
    pub fn from_bytes(data: &[u8]) -> Result<CompressedTrace, CodecError> {
        crate::container::read_v2(data)
    }
}

pub(crate) fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CompressedTrace {
        CompressedTrace {
            short_templates: vec![vec![0, 16, 32, 48], vec![0, 16, 37, 34, 52, 48, 32]],
            long_templates: vec![LongTemplate::from_entries(
                (0..60).map(|i| (((i * 3) % 54) as u16, Duration::from_micros(i as u64 * 17))),
            )],
            addresses: vec![Ipv4Addr::new(193, 1, 2, 3), Ipv4Addr::new(172, 16, 99, 4)],
            time_seq: vec![
                FlowRecord {
                    first_ts: Timestamp::from_micros(1_000),
                    is_long: false,
                    template_idx: 1,
                    addr_idx: 0,
                    rtt: Duration::from_micros(80_000),
                },
                FlowRecord {
                    first_ts: Timestamp::from_micros(5_000),
                    is_long: true,
                    template_idx: 0,
                    addr_idx: 1,
                    rtt: Duration::ZERO,
                },
                FlowRecord {
                    first_ts: Timestamp::from_micros(5_000),
                    is_long: false,
                    template_idx: 0,
                    addr_idx: 0,
                    rtt: Duration::from_micros(128),
                },
            ],
        }
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let ct = sample();
        let bytes = ct.to_bytes();
        let back = CompressedTrace::from_bytes(&bytes).unwrap();
        assert_eq!(back.short_templates, ct.short_templates);
        assert_eq!(back.long_templates, ct.long_templates);
        assert_eq!(back.addresses, ct.addresses);
        assert_eq!(back.time_seq.len(), ct.time_seq.len());
        for (a, b) in ct.time_seq.iter().zip(&back.time_seq) {
            assert_eq!(a.first_ts, b.first_ts);
            assert_eq!(a.is_long, b.is_long);
            assert_eq!(a.template_idx, b.template_idx);
            assert_eq!(a.addr_idx, b.addr_idx);
            // RTT quantized to 128 µs units.
            assert!(a.rtt.as_micros() - b.rtt.as_micros() < 128);
        }
    }

    #[test]
    fn counts_and_validation() {
        let ct = sample();
        assert_eq!(ct.flow_count(), 3);
        assert_eq!(ct.packet_count(), 7 + 60 + 4);
        ct.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_indices() {
        let mut ct = sample();
        ct.time_seq[0].template_idx = 99;
        assert!(matches!(
            ct.validate(),
            Err(CodecError::IndexOutOfRange("short template", 99))
        ));
        let mut ct = sample();
        ct.time_seq[1].template_idx = 5;
        assert!(matches!(
            ct.validate(),
            Err(CodecError::IndexOutOfRange("long template", 5))
        ));
        let mut ct = sample();
        ct.time_seq[2].addr_idx = 7;
        assert!(matches!(
            ct.validate(),
            Err(CodecError::IndexOutOfRange("address", 7))
        ));
    }

    #[test]
    fn validation_catches_unsorted_time_seq() {
        let mut ct = sample();
        ct.time_seq.swap(0, 1);
        assert_eq!(ct.validate(), Err(CodecError::UnsortedTimeSeq));
    }

    #[test]
    fn bad_header_rejected() {
        assert_eq!(
            CompressedTrace::from_bytes(b"nope!"),
            Err(CodecError::BadHeader)
        );
        let mut bytes = sample().to_bytes();
        bytes[4] = 9; // wrong version
        assert_eq!(
            CompressedTrace::from_bytes(&bytes),
            Err(CodecError::BadHeader)
        );
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample().to_bytes();
        for cut in 5..bytes.len() {
            assert!(
                CompressedTrace::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    /// A v1 archive: one short template `[short_m]`, one long template
    /// `[(long_m, 0)]`, one address and one flow record `(key, addr)`.
    fn crafted_v1(short_m: u64, long_m: u64, key: u64, addr: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        for v in [1, 1, 1, 1, 1, short_m, 1, long_m, 0] {
            put_varint(v, &mut bytes); // counts, then both templates
        }
        bytes.extend_from_slice(&[10, 0, 0, 1]);
        for v in [key, addr, 1] {
            put_varint(v, &mut bytes); // template key, address, Δts
        }
        if key & 1 == 0 {
            put_varint(0, &mut bytes); // rtt
        }
        bytes
    }

    const WIDE_U16: u64 = u16::MAX as u64 + 2; // `as u16` aliases it to 1
    const WIDE_U32: u64 = u32::MAX as u64 + 1; // `as u32` aliases it to 0

    #[test]
    fn wide_template_entries_rejected_not_aliased() {
        assert!(CompressedTrace::from_bytes(&crafted_v1(1, 1, 0, 0)).is_ok());
        assert!(CompressedTrace::from_bytes(&crafted_v1(1, 1, 1, 0)).is_ok());
        for bytes in [crafted_v1(WIDE_U16, 1, 0, 0), crafted_v1(1, WIDE_U16, 0, 0)] {
            assert_eq!(
                CompressedTrace::from_bytes(&bytes),
                Err(CodecError::IndexOutOfRange("template entry", WIDE_U16))
            );
        }
    }

    #[test]
    fn wide_indices_rejected_not_aliased() {
        assert_eq!(
            CompressedTrace::from_bytes(&crafted_v1(1, 1, WIDE_U32 << 1, 0)),
            Err(CodecError::IndexOutOfRange("short template", WIDE_U32))
        );
        assert_eq!(
            CompressedTrace::from_bytes(&crafted_v1(1, 1, WIDE_U32 << 1 | 1, 0)),
            Err(CodecError::IndexOutOfRange("long template", WIDE_U32))
        );
        assert_eq!(
            CompressedTrace::from_bytes(&crafted_v1(1, 1, 0, WIDE_U32)),
            Err(CodecError::IndexOutOfRange("address", WIDE_U32))
        );
    }

    #[test]
    fn timestamp_overflow_is_an_error_not_a_panic() {
        // Two flows whose Δts are 1 and u64::MAX: the running clock
        // would wrap past zero.
        let bytes = include_bytes!("../../../tests/fixtures/ts_overflow_v1.fzc");
        assert_eq!(
            CompressedTrace::from_bytes(bytes),
            Err(CodecError::UnsortedTimeSeq)
        );
    }

    #[test]
    fn short_flow_record_is_about_eight_bytes() {
        // 1000 short flows, one template, one address.
        let ct = CompressedTrace {
            short_templates: vec![vec![0, 16, 32, 48]],
            long_templates: vec![],
            addresses: vec![Ipv4Addr::new(10, 0, 0, 1)],
            time_seq: (0..1000)
                .map(|i| FlowRecord {
                    first_ts: Timestamp::from_micros(i * 50_000),
                    is_long: false,
                    template_idx: 0,
                    addr_idx: 0,
                    rtt: Duration::from_micros(90_000),
                })
                .collect(),
        };
        let (_, sizes) = ct.encode();
        let per_flow = sizes.time_seq as f64 / 1000.0;
        assert!(
            (5.0..=9.0).contains(&per_flow),
            "≈8 bytes per flow as in §5, got {per_flow}"
        );
    }

    #[test]
    fn empty_container_roundtrip() {
        let ct = CompressedTrace::default();
        let back = CompressedTrace::from_bytes(&ct.to_bytes()).unwrap();
        assert_eq!(back, ct);
        assert_eq!(back.packet_count(), 0);
    }

    #[test]
    fn sizes_display_and_total() {
        let (_, sizes) = sample().encode();
        assert!(sizes.total() > 0);
        let s = sizes.to_string();
        assert!(s.contains("time-seq"));
        assert_eq!(
            sizes.total(),
            sizes.header
                + sizes.short_templates
                + sizes.long_templates
                + sizes.addresses
                + sizes.time_seq
                + sizes.metadata
                + sizes.telemetry
        );
    }
}
